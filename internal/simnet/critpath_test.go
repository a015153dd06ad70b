package simnet

import "testing"

func TestCriticalPathChain(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	a := e.NewActivity(cpu, 2, "a")
	b := e.NewActivity(cpu, 3, "b")
	c := e.NewActivity(cpu, 4, "c")
	e.AddDep(a, b)
	e.AddDep(b, c)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	path := e.CriticalPath()
	if len(path) != 3 {
		t.Fatalf("path length %d, want 3: %+v", len(path), path)
	}
	if path[0].Label != "a" || path[2].Label != "c" {
		t.Errorf("path order wrong: %+v", path)
	}
	if path[0].Kind != CritStart {
		t.Errorf("chain head kind = %v", path[0].Kind)
	}
	if path[1].Kind != CritDependency || path[2].Kind != CritDependency {
		t.Errorf("chain kinds = %v, %v", path[1].Kind, path[2].Kind)
	}
	s := Stats(path)
	if s.WorkTime != 9 || s.Steps != 3 || s.DependencyHops != 2 || s.ResourceHops != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCriticalPathDiamondPicksSlowBranch(t *testing.T) {
	e := NewEngine()
	r0 := e.NewResource("r0")
	r1 := e.NewResource("r1")
	r2 := e.NewResource("r2")
	a := e.NewActivity(r0, 1, "a")
	fast := e.NewActivity(r1, 2, "fast")
	slow := e.NewActivity(r2, 7, "slow")
	d := e.NewActivity(r0, 1, "d")
	e.AddDep(a, fast)
	e.AddDep(a, slow)
	e.AddDep(fast, d)
	e.AddDep(slow, d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	path := e.CriticalPath()
	labels := make([]string, len(path))
	for i, p := range path {
		labels[i] = p.Label
	}
	want := []string{"a", "slow", "d"}
	if len(labels) != 3 || labels[0] != want[0] || labels[1] != want[1] || labels[2] != want[2] {
		t.Errorf("path = %v, want %v", labels, want)
	}
}

func TestCriticalPathResourceContention(t *testing.T) {
	// Two independent activities on one resource: the second's start is
	// fixed by contention, not dependency.
	e := NewEngine()
	cpu := e.NewResource("cpu")
	e.NewActivity(cpu, 5, "first")
	e.NewActivity(cpu, 5, "second")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	path := e.CriticalPath()
	if len(path) != 2 {
		t.Fatalf("path = %+v", path)
	}
	if path[1].Kind != CritResource {
		t.Errorf("second activity kind = %v, want resource", path[1].Kind)
	}
	s := Stats(path)
	if s.ResourceHops != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCriticalPathBeforeRun(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	e.NewActivity(cpu, 1, "x")
	if e.CriticalPath() != nil {
		t.Error("critical path available before Run")
	}
}

func TestCriticalPathEmptyEngine(t *testing.T) {
	e := NewEngine()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.CriticalPath() != nil {
		t.Error("critical path on empty engine not nil")
	}
}

func TestCritKindStrings(t *testing.T) {
	if CritStart.String() != "start" || CritDependency.String() != "dependency" ||
		CritResource.String() != "resource" || CritKind(9).String() != "unknown" {
		t.Error("kind strings wrong")
	}
}

// TestCriticalPathCoversMakespan: the last step of the path ends at the
// makespan and the path is time-monotone.
func TestCriticalPathCoversMakespan(t *testing.T) {
	e := NewEngine()
	r0 := e.NewResource("r0")
	r1 := e.NewResource("r1")
	var prev ActID
	for i := 0; i < 20; i++ {
		a := e.NewActivity(r0, float64(1+i%3), "a")
		b := e.NewActivity(r1, float64(2-i%2), "b")
		e.AddDep(a, b)
		if prev != 0 {
			e.AddDep(prev, a)
		}
		prev = b
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := e.CriticalPath()
	if path[len(path)-1].End != res.Makespan {
		t.Errorf("path ends at %g, makespan %g", path[len(path)-1].End, res.Makespan)
	}
	for i := 1; i < len(path); i++ {
		if path[i].Start < path[i-1].End-1e-12 {
			t.Errorf("path not monotone at %d: %+v -> %+v", i, path[i-1], path[i])
		}
	}
}
