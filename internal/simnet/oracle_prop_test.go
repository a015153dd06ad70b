package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/topo"
)

// twin builds one random graph in the handle engine and the pointer oracle
// side by side: every resource and activity is registered in both, in the
// same order, so handle i of one engine is element i of the other.
type twin struct {
	e    *Engine
	ref  *refEngine
	res  []*refResource // ref counterpart of ResID(i)
	acts []ActID
	refs []*refActivity
}

func (w *twin) activity(r ResID, dur float64, label string) int {
	w.acts = append(w.acts, w.e.NewActivity(r, dur, label))
	w.refs = append(w.refs, w.ref.NewActivity(w.res[r], dur, label))
	return len(w.acts) - 1
}

func (w *twin) dep(i, j int) {
	w.e.AddDep(w.acts[i], w.acts[j])
	w.ref.AddDep(w.refs[i], w.refs[j])
}

// randDuration mixes zero, small integers (so ready-time ties exercise the
// creation-order tie-break) and arbitrary reals (so rounding matters).
func randDuration(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1, 2:
		return float64(1 + rng.Intn(4))
	default:
		return rng.Float64() * 5
	}
}

// buildTwin generates the seed's graph: a random DAG over a few shared
// resources, optionally a fat-tree Fabric whose routes become hop chains,
// optionally a per-resource PerturbFunc, and rarely a back edge that closes
// a cycle. e is Reset and reused, so the handle engine's column recycling is
// under test too.
func buildTwin(seed int64, e *Engine) (w *twin, traced, cyclic bool) {
	rng := rand.New(rand.NewSource(seed))
	traced = rng.Intn(2) == 0
	e.Reset()
	e.KeepTrace(traced)
	e.KeepUtilization(traced)
	e.KeepIntervals(true)
	w = &twin{e: e, ref: newRefEngine()}
	w.ref.KeepTrace(traced)
	w.ref.KeepUtilization(traced)
	w.ref.KeepIntervals(true)

	var f *Fabric
	nodes := int64(4 + rng.Intn(13))
	if rng.Intn(3) > 0 {
		spec := topo.TwoLevel(2+rng.Intn(3), 0.5+rng.Float64()*2, rng.Float64()*1e-2, 1+rng.Intn(2))
		if rng.Intn(2) == 0 {
			spec = topo.FatTree(2, 2, 1+rng.Float64(), 2+rng.Float64(), rng.Float64()*1e-2, 1+rng.Intn(2))
		}
		var err error
		if f, err = NewFabric(e, spec, nodes, traced); err != nil {
			panic(err)
		}
	}
	shared := 1 + rng.Intn(6)
	for i := 0; i < shared; i++ {
		name := ""
		if traced {
			name = fmt.Sprintf("r%d", i)
		}
		e.NewResource(name)
	}
	for r := 0; r < e.NumResources(); r++ {
		w.res = append(w.res, w.ref.NewResource(e.ResName(ResID(r))))
	}
	if rng.Intn(2) == 0 {
		factors := make([]float64, e.NumResources())
		for r := range factors {
			factors[r] = 0.5 + rng.Float64()*2
		}
		e.SetPerturb(func(r ResID, d float64) float64 { return d * factors[r] })
		w.ref.SetPerturb(func(r *refResource, d float64) float64 { return d * factors[r.ID] })
	}

	links := e.NumResources() - shared
	pick := func() ResID { return ResID(links + rng.Intn(shared)) }
	label := func(kind string) string {
		if !traced {
			return ""
		}
		return fmt.Sprintf("%s%d", kind, len(w.acts))
	}
	n := 1 + rng.Intn(150)
	var hops []Hop
	for len(w.acts) < n {
		if f != nil && len(w.acts) > 0 && rng.Intn(5) == 0 {
			// A routed message: sender op, then one activity per hop.
			prev := w.activity(pick(), randDuration(rng), label("send"))
			w.dep(rng.Intn(prev), prev)
			base := randDuration(rng)
			hops = f.Route(rng.Int63n(nodes), rng.Int63n(nodes), hops[:0])
			for _, h := range hops {
				a := w.activity(h.Res, base/h.BW+h.Latency, label("hop"))
				w.dep(prev, a)
				prev = a
			}
			continue
		}
		a := w.activity(pick(), randDuration(rng), label("a"))
		for k := rng.Intn(4); k > 0 && a > 0; k-- {
			w.dep(rng.Intn(a), a)
		}
	}
	if n > 2 && rng.Intn(20) == 0 {
		w.dep(n-1, 0) // with 0 -> ... -> n-1 this may close a cycle
		cyclic = true
	}
	return w, traced, cyclic
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestOracleAgrees is the differential test of the handle engine against
// the pointer engine it replaced: on every seeded random graph both must
// agree bit for bit on the makespan, every activity's start and end, the
// trace, the interval log, the critical path, utilization and every
// resource's busy time — and on whether the graph deadlocks.
func TestOracleAgrees(t *testing.T) {
	e := NewEngine()
	cycles := 0
	for seed := int64(1); seed <= 400; seed++ {
		w, traced, cyclic := buildTwin(seed, e)
		got, err := e.Run()
		want, refErr := w.ref.Run()
		if (err != nil) != (refErr != nil) {
			t.Fatalf("seed %d: error %v, oracle error %v", seed, err, refErr)
		}
		if err != nil {
			if !cyclic {
				t.Fatalf("seed %d: acyclic graph failed: %v", seed, err)
			}
			cycles++
			continue
		}
		if !sameFloat(got.Makespan, want.Makespan) {
			t.Fatalf("seed %d: makespan %v, oracle %v", seed, got.Makespan, want.Makespan)
		}
		for i, a := range w.acts {
			if !sameFloat(e.Start(a), w.refs[i].Start) || !sameFloat(e.End(a), w.refs[i].End) {
				t.Fatalf("seed %d: activity %d ran [%v,%v], oracle [%v,%v]",
					seed, i, e.Start(a), e.End(a), w.refs[i].Start, w.refs[i].End)
			}
		}
		for r, rr := range w.res {
			if !sameFloat(e.BusyTime(ResID(r)), rr.BusyTime()) {
				t.Fatalf("seed %d: resource %d busy %v, oracle %v", seed, r, e.BusyTime(ResID(r)), rr.BusyTime())
			}
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) || traced != (len(got.Trace) == len(w.acts)) {
			t.Fatalf("seed %d: trace differs from the oracle's", seed)
		}
		if !reflect.DeepEqual(got.Utilization, want.Utilization) {
			t.Fatalf("seed %d: utilization %v, oracle %v", seed, got.Utilization, want.Utilization)
		}
		iv, refIv := e.Intervals(), w.ref.Intervals()
		if len(iv) != len(refIv) || len(iv) != len(w.acts) {
			t.Fatalf("seed %d: %d intervals, oracle %d", seed, len(iv), len(refIv))
		}
		for i := range iv {
			o := refIv[i]
			if iv[i] != (Interval{Res: ResID(o.Res.ID), Ready: o.Ready, Start: o.Start, End: o.End}) {
				t.Fatalf("seed %d: interval %d = %+v, oracle %+v", seed, i, iv[i], o)
			}
		}
		if path, refPath := e.CriticalPath(), w.ref.CriticalPath(); !reflect.DeepEqual(path, refPath) {
			t.Fatalf("seed %d: critical path\n%+v\noracle\n%+v", seed, path, refPath)
		}
	}
	if cycles == 0 {
		t.Error("no generated graph deadlocked: the cycle case went untested")
	}
}
