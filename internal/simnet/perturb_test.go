package simnet

import "testing"

// buildChain registers a two-resource pipeline: a (on r1) -> b (on r2).
func buildChain(e *Engine) {
	r1 := e.NewResource("r1")
	r2 := e.NewResource("r2")
	a := e.NewActivity(r1, 2, "a")
	b := e.NewActivity(r2, 3, "b")
	e.AddDep(a, b)
}

func TestPerturbScalesDurations(t *testing.T) {
	e := NewEngine()
	buildChain(e)
	base, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan != 5 {
		t.Fatalf("unperturbed makespan = %g, want 5", base.Makespan)
	}

	e.Reset()
	e.SetPerturb(func(r ResID, d float64) float64 {
		if e.ResName(r) == "r1" {
			return 2 * d
		}
		return d
	})
	buildChain(e)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 7 { // 2*2 on r1, +3 on r2
		t.Errorf("perturbed makespan = %g, want 7", res.Makespan)
	}
}

func TestResetClearsPerturb(t *testing.T) {
	e := NewEngine()
	e.SetPerturb(func(r ResID, d float64) float64 { return 100 * d })
	buildChain(e)
	if res, err := e.Run(); err != nil || res.Makespan != 500 {
		t.Fatalf("perturbed run: makespan %g err %v, want 500", res.Makespan, err)
	}
	e.Reset()
	buildChain(e)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 5 {
		t.Errorf("post-Reset makespan = %g, want 5 (hook must not survive Reset)", res.Makespan)
	}
}

func TestPerturbInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative perturbed duration did not panic")
		}
	}()
	e := NewEngine()
	e.SetPerturb(func(r ResID, d float64) float64 { return -1 })
	r := e.NewResource("r")
	e.NewActivity(r, 1, "a")
}
