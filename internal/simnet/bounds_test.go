package simnet

import (
	"reflect"
	"testing"
)

// TestLowerBounds checks the two bounds Run verifies on the three shapes
// that make each one tight: a dependency chain (the path bound), a fan-out
// (the path through the slowest branch) and independent work contending
// for one resource (the busiest resource's occupancy).
func TestLowerBounds(t *testing.T) {
	cases := []struct {
		name                     string
		build                    func(e *Engine)
		path, resource, makespan float64
	}{
		{"chain", func(e *Engine) {
			a := e.NewActivity(e.NewResource("r0"), 2, "a")
			b := e.NewActivity(e.NewResource("r1"), 3, "b")
			c := e.NewActivity(e.NewResource("r2"), 4, "c")
			e.AddDep(a, b)
			e.AddDep(b, c)
		}, 9, 4, 9},
		{"fan-out", func(e *Engine) {
			a := e.NewActivity(e.NewResource("r0"), 1, "a")
			for i, d := range []float64{3, 5, 2} {
				e.AddDep(a, e.NewActivity(e.NewResource(""), d, string(rune('b'+i))))
			}
		}, 6, 5, 6},
		{"contended", func(e *Engine) {
			cpu := e.NewResource("cpu")
			for _, d := range []float64{2, 3, 4} {
				e.NewActivity(cpu, d, "w")
			}
			e.NewActivity(e.NewResource("nic"), 1, "x")
		}, 4, 9, 9},
	}
	for _, c := range cases {
		e := NewEngine()
		c.build(e)
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if e.pathBound != c.path || e.resBound != c.resource || res.Makespan != c.makespan {
			t.Errorf("%s: path bound %g, resource bound %g, makespan %g; want %g, %g, %g",
				c.name, e.pathBound, e.resBound, res.Makespan, c.path, c.resource, c.makespan)
		}
	}
}

// TestCheckBoundsRejects: a makespan below either bound is an error, one at
// the bound is not (the comparison is exact).
func TestCheckBoundsRejects(t *testing.T) {
	if checkBounds(5, 6, 0) == nil || checkBounds(5, 0, 6) == nil {
		t.Error("makespan below a lower bound accepted")
	}
	if err := checkBounds(6, 6, 6); err != nil {
		t.Errorf("makespan equal to both bounds rejected: %v", err)
	}
}

// sideTables are the Engine slices allowed to hold pointers: name tables
// filled only by traced builds, the per-resource heap headers and the trace
// handed out to callers. Nothing per activity or per edge may join them.
var sideTables = map[string]bool{"labels": true, "resNames": true, "pending": true, "trace": true}

// hasPointers reports whether values of type t contain anything the garbage
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	default:
		return false
	}
}

// TestColumnsPointerFree locks the engine's layout: every slice column of
// Engine outside the named side tables, and the event-heap entry, must be
// free of pointers, strings, slices and maps, so the GC never scans the
// activity graph and Run never executes a write barrier on it.
func TestColumnsPointerFree(t *testing.T) {
	et := reflect.TypeOf(Engine{})
	walked := map[string]bool{}
	for i := 0; i < et.NumField(); i++ {
		f := et.Field(i)
		if f.Type.Kind() != reflect.Slice || sideTables[f.Name] {
			continue
		}
		walked[f.Name] = true
		if hasPointers(f.Type.Elem()) {
			t.Errorf("Engine.%s holds %v, which contains pointers", f.Name, f.Type.Elem())
		}
	}
	for _, name := range []string{"res", "dur", "start", "end", "ready", "est", "npreds", "succOff", "succN",
		"readyPred", "critPred", "critKind", "done", "edges", "succList", "events", "intervals"} {
		if !walked[name] {
			t.Errorf("column %s was not walked", name)
		}
	}
	if hasPointers(reflect.TypeOf(completion{})) {
		t.Error("completion contains pointers")
	}
	if s := reflect.TypeOf(completion{}).Size(); s != 16 {
		t.Errorf("completion is %d bytes, want 16", s)
	}
	// The checker itself must see through structs and arrays.
	if !hasPointers(reflect.TypeOf(struct{ x [2]struct{ s string } }{})) || hasPointers(reflect.TypeOf(edge{})) {
		t.Error("hasPointers misclassifies")
	}
}
