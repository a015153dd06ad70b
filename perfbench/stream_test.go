package main

import (
	"reflect"
	"testing"
)

func TestUniverseIsDistinctAndValid(t *testing.T) {
	u := universe()
	if len(u) != 960 {
		t.Fatalf("universe has %d shapes, want 960", len(u))
	}
	seen := make(map[string]bool)
	for _, q := range u {
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", q.Key(), err)
		}
		if seen[q.Key()] {
			t.Fatalf("duplicate shape %s", q.Key())
		}
		seen[q.Key()] = true
	}
}

func TestStreamIsSeeded(t *testing.T) {
	a, b := requestStream(7, 2000), requestStream(7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different streams")
	}
	c := requestStream(8, 2000)
	same := 0
	for i := range a {
		if a[i].Key() == c[i].Key() {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("seeds 7 and 8 agree on %d of %d requests", same, len(a))
	}
	ba, err := encodeStream(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := encodeStream(b)
	if !reflect.DeepEqual(ba, bb) {
		t.Fatal("the same seed gave different request bodies")
	}
}

// TestZipfHeadShare: under Zipf(1.1) the most popular tenth of the 960
// shapes gets H(96)/H(960) ≈ 0.766 of the requests (H the generalized
// harmonic number of order 1.1); rounding to whole requests may move that
// only slightly, for every seed.
func TestZipfHeadShare(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		h := headShare(requestStream(seed, streamLen))
		if h < 0.76 || h > 0.775 {
			t.Errorf("seed %d: head share %.4f outside [0.76, 0.775]", seed, h)
		}
	}
}

// TestStreamMixIsFixed: seeds reorder the stream but never change how
// often each shape is asked for.
func TestStreamMixIsFixed(t *testing.T) {
	count := func(seed int64) map[string]int {
		m := make(map[string]int)
		for _, q := range requestStream(seed, streamLen) {
			m[q.Key()]++
		}
		return m
	}
	if a, b := count(1), count(2); !reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 give different request mixes")
	}
	c := zipfCounts(960, streamLen)
	total := 0
	for k, n := range c {
		total += n
		if k > 0 && n > c[k-1] {
			t.Fatalf("rank %d gets %d requests, more than rank %d's %d", k, n, k-1, c[k-1])
		}
	}
	if total != streamLen {
		t.Fatalf("counts sum to %d, want %d", total, streamLen)
	}
}
