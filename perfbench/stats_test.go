package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}

// TestTailNeedsTenBeyond: a percentile is a tail figure only when at
// least ten samples lie beyond it.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {10000, 99.9, true}, {9999, 99.9, false},
		{100, 90, true}, {20, 50, true}, {19, 50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	// With 1000 samples the 99th percentile leaves exactly ten beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	l := summarize(xs)
	beyond := 0
	for _, x := range xs {
		if x > l.P99 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p99 of 1000, want 10", beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %g", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Name: "estimate.Optimum", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "estimate.Probe", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "estimate.Probe", Start: 20 * ms, End: 40 * ms}, // overlaps 2
		{ID: 4, Parent: 1, Name: "experiments.Sweep.OptimumExactCtx", Start: 60 * ms, End: 90 * ms},
		{ID: 5, Parent: 4, Name: "grandchild", Start: 61 * ms, End: 62 * ms},
	}
	if got := selfTime(spans, "estimate.Optimum"); math.Abs(got-0.040) > 1e-12 {
		t.Errorf("self time %g s, want 0.040", got)
	}
	if got, n := spanTotals(spans, "estimate.Probe"); n != 2 || math.Abs(got-0.040) > 1e-12 {
		t.Errorf("probe total %g s over %d spans", got, n)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("op", spanRef{}, "x")
	sp.end()
	if tr.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
	tr = newTracer()
	root := tr.begin("op", spanRef{}, "root")
	child := tr.begin("op", root, "child")
	child.end()
	root.end()
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Op != "op" {
		t.Errorf("spans %+v", s)
	}
}
