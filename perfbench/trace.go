package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one operation (a grid point, a request or a run) share Op;
// Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced runs share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it. The zero spanRef (from a nil
// tracer) is inert.
type spanRef struct {
	t  *tracer
	id int
}

// begin opens a span named name under parent (0 for a root) for op.
func (t *tracer) begin(op string, parent spanRef, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Op: op, Name: name, Start: now, End: -1})
	return spanRef{t: t, id: id}
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := time.Since(r.t.t0).Nanoseconds()
	r.t.mu.Lock()
	r.t.spans[r.id-1].End = now
	r.t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanTotals sums the durations of the spans called name, and counts them.
func spanTotals(spans []span, name string) (total float64, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// selfTime sums, over the spans called name, each span's duration minus
// the part of it its direct children cover (overlapping children are
// counted once).
func selfTime(spans []span, name string) float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	total := 0.0
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		curS, curE := int64(-1), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > curE {
				covered += curE - curS
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		covered += curE - curS
		total += float64(s.End-s.Start-covered) / 1e9
	}
	return total
}

// writeTrace writes the run's spans with the stamp to dir as JSON.
func writeTrace(dir, workload string, seed int64, st stamp, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Stamp    stamp  `json:"stamp"`
		Spans    []span `json:"spans"`
	}{workload, seed, st, spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
