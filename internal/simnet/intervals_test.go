package simnet

import "testing"

// TestIntervalsMatchTrace: the string-free interval log must describe the
// exact same executions as the full trace — same resource, same ready time,
// same [start, end) — entry for entry (both are appended in completion
// order).
func TestIntervalsMatchTrace(t *testing.T) {
	e := NewEngine()
	e.KeepTrace(true)
	e.KeepIntervals(true)
	cpu := e.NewResource("cpu")
	nic := e.NewResource("nic")
	a := e.NewActivity(cpu, 2, "a")
	b := e.NewActivity(nic, 3, "b")
	e.NewActivity(cpu, 1, "c") // contends with a for the cpu
	e.AddDep(a, b)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	iv := e.Intervals()
	if len(iv) != len(res.Trace) || len(iv) != 3 {
		t.Fatalf("got %d intervals, %d trace entries, want 3", len(iv), len(res.Trace))
	}
	for i, entry := range res.Trace {
		got := iv[i]
		if e.ResName(got.Res) != entry.Resource || got.Start != entry.Start ||
			got.End != entry.End || got.Ready != entry.Ready {
			t.Errorf("interval %d = {%s %g [%g,%g]}, trace = {%s %g [%g,%g]}",
				i, e.ResName(got.Res), got.Ready, got.Start, got.End,
				entry.Resource, entry.Ready, entry.Start, entry.End)
		}
	}
	// c became ready at 0 but queued behind a on the cpu: its queue wait
	// (Start − Ready) must be a's full duration.
	var cIv *Interval
	for i := range iv {
		if iv[i].Res == cpu && iv[i].Ready == 0 && iv[i].Start > 0 {
			cIv = &iv[i]
		}
	}
	if cIv == nil || cIv.Start-cIv.Ready != 2 {
		t.Errorf("contended activity queue wait wrong: %+v", cIv)
	}
	// b's ready time is a's end.
	if got := iv[len(iv)-1]; got.Res != nic || got.Ready != 2 || got.Start != 2 || got.End != 5 {
		t.Errorf("dependent interval = %+v, want nic ready=2 [2,5]", got)
	}
	if res.Makespan != 5 {
		t.Errorf("makespan = %g, want 5", res.Makespan)
	}
}

// TestIntervalsRecycledAcrossReset: Reset must rewind the interval log (the
// buffer is recycled, not abandoned) and turn recording off again.
func TestIntervalsRecycledAcrossReset(t *testing.T) {
	e := NewEngine()
	e.KeepIntervals(true)
	r := e.NewResource("")
	e.NewActivity(r, 1, "")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Intervals()) != 1 {
		t.Fatalf("got %d intervals, want 1", len(e.Intervals()))
	}
	e.Reset()
	if len(e.Intervals()) != 0 {
		t.Error("Reset did not rewind the interval log")
	}
	r = e.NewResource("")
	e.NewActivity(r, 1, "")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Intervals()) != 0 {
		t.Error("Reset did not turn interval recording off")
	}
}
