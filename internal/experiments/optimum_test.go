package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestTieredOptimumMatchesExactOnFigures is the acceptance gate of the
// tiered and exact searches on the paper's Fig. 9-11 spaces (which also
// feed Fig. 12), for both schedules. The reference is the unpruned
// full-ladder argmin: every OptimumHeights rung simulated, earliest minimum
// wins. The tiered Optimum and the branch-and-bound OptimumExact must both
// return its bit-identical (V, t), and the tiered search must issue at
// least 4x fewer DES evaluations per query and 5x fewer in aggregate than
// the full ladder costs on a fresh cache — measured with the sim.Cache
// counters.
func TestTieredOptimumMatchesExactOnFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure spaces")
	}
	if raceDetectorEnabled {
		t.Skip("full-scale DES is prohibitively slow under the race detector; the randomized property test covers the tiered path there")
	}
	type counts struct{ tiered, bnb, ladder uint64 }
	var mu sync.Mutex // subtests run in parallel
	results := make(map[string]counts)
	var queries []string
	for _, fig := range []Sweep{Fig9(), Fig10(), Fig11()} {
		fig := fig
		for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
			mode := mode
			name := fmt.Sprintf("%s/%s", fig.ID, mode)
			queries = append(queries, name)
			results[name] = counts{}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				s := fig
				wantV, wantT := fullLadderArgmin(t, s, mode)
				ladder := uint64(len(s.OptimumHeights()))

				s.Cache = sim.NewCache()
				out, err := s.OptimumDetail(mode)
				if err != nil {
					t.Fatal(err)
				}
				tiered := s.Cache.Stats().Evals
				if out.Tier != estimate.TierCertified {
					t.Errorf("paper grid not certified: %+v", out)
				}
				if out.V != wantV || out.T != wantT {
					t.Errorf("tiered (V=%d t=%v) != full-ladder argmin (V=%d t=%v)", out.V, out.T, wantV, wantT)
				}

				s.Cache = sim.NewCache()
				vEx, tEx, err := s.OptimumExact(mode)
				if err != nil {
					t.Fatal(err)
				}
				bnb := s.Cache.Stats().Evals
				if vEx != wantV || tEx != wantT {
					t.Errorf("exact (V=%d t=%v) != full-ladder argmin (V=%d t=%v)", vEx, tEx, wantV, wantT)
				}

				t.Logf("DES evaluations: tiered %d, branch-and-bound exact %d, full ladder %d", tiered, bnb, ladder)
				if tiered*4 > ladder {
					t.Errorf("per-query savings too small: %d tiered evals vs a %d-rung ladder", tiered, ladder)
				}
				if bnb >= ladder {
					t.Errorf("branch-and-bound pruned nothing: %d evals on a %d-rung ladder", bnb, ladder)
				}
				mu.Lock()
				results[name] = counts{tiered, bnb, ladder}
				mu.Unlock()
			})
		}
	}
	// Runs after every parallel subtest above has finished.
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		var tiered, bnb, ladder uint64
		for _, name := range queries {
			c := results[name]
			if c.ladder == 0 {
				return // a subtest failed before recording; it already reported
			}
			tiered += c.tiered
			bnb += c.bnb
			ladder += c.ladder
		}
		if tiered*5 > ladder {
			t.Errorf("aggregate savings below 5x: %d tiered DES evaluations vs %d ladder rungs", tiered, ladder)
		}
		t.Logf("DES evaluations across %d queries: tiered %d, branch-and-bound exact %d, full ladder %d (%.1fx over tiered)",
			len(queries), tiered, bnb, ladder, float64(ladder)/float64(tiered))
	})
}

// fullLadderArgmin is the unpruned reference optimum: every OptimumHeights
// rung simulated on a fresh cache, the earliest height of minimal makespan
// wins.
func fullLadderArgmin(t *testing.T, s Sweep, mode sim.Mode) (int64, float64) {
	t.Helper()
	heights := s.OptimumHeights()
	rs, err := s.evalHeights(context.Background(), sim.NewCache(), mode, heights)
	if err != nil {
		t.Fatal(err)
	}
	best, bestT := int64(-1), 0.0
	for i, r := range rs {
		if best < 0 || r.Makespan < bestT {
			best, bestT = heights[i], r.Makespan
		}
	}
	return best, bestT
}

// TestOptimumMatchesSequentialArgminRandomized is the seeded property
// test: across randomized Grid3D/Machine configurations — every processor
// grid from 1×1 to 4×4, K off the powers of two half the time, all three
// capabilities — and both modes, the tiered Optimum and the
// branch-and-bound OptimumExact must each return exactly the answer
// obtained by running the sequential reference sweep over every candidate
// height and taking the earliest argmin. On configurations far from the
// calibrated regime the certification tolerances reject the fast path and
// the exact fallback answers — either way the identity must hold
// bit-for-bit.
func TestOptimumMatchesSequentialArgminRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tiles := []int64{2, 4, 8}
	caps := []sim.Capability{sim.CapNone, sim.CapDMA, sim.CapFullDuplex}
	for trial := 0; trial < 16; trial++ {
		pi, pj := 1+int64(trial/4), 1+int64(trial%4)
		g := model.Grid3D{
			I:  pi * tiles[rng.Intn(len(tiles))],
			J:  pj * tiles[rng.Intn(len(tiles))],
			K:  (256 << rng.Intn(3)) + rng.Int63n(2)*rng.Int63n(256),
			PI: pi, PJ: pj,
		}
		m := model.PentiumCluster()
		scale := func(x float64) float64 { return x * math.Exp(4*rng.Float64()-2) }
		m.Tc = scale(m.Tc)
		m.Ts = scale(m.Ts)
		m.Tt = scale(m.Tt)
		m.FillMPIBase = scale(m.FillMPIBase)
		m.FillMPIPerByte = scale(m.FillMPIPerByte)
		m.FillKernelBase = scale(m.FillKernelBase)
		m.FillKernelPerByte = scale(m.FillKernelPerByte)
		s := Sweep{
			ID: fmt.Sprintf("prop%d", trial), Title: "property",
			Grid: g, Heights: Ladder(4, g.K/4),
			Machine: m, Cap: caps[rng.Intn(len(caps))],
			Cache: sim.NewCache(),
		}
		ref := s
		ref.Heights = s.OptimumHeights()
		ref.Cache = nil
		rows, err := ref.RunSequential()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
			wantV, wantT := int64(-1), 0.0
			for _, r := range rows {
				tt := r.OverlapSim
				if mode == sim.Blocking {
					tt = r.BlockingSim
				}
				if wantV < 0 || tt < wantT {
					wantV, wantT = r.V, tt
				}
			}
			out, err := s.OptimumDetail(mode)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, mode, err)
			}
			if out.V != wantV || out.T != wantT {
				t.Errorf("trial %d %s (grid %+v, %s): tiered V=%d t=%v != reference V=%d t=%v (outcome %+v)",
					trial, mode, g, s.Cap, out.V, out.T, wantV, wantT, out)
			}
			exact := s
			exact.Cache = sim.NewCache()
			vEx, tEx, err := exact.OptimumExact(mode)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, mode, err)
			}
			if vEx != wantV || tEx != wantT {
				t.Errorf("trial %d %s (grid %+v, %s): exact V=%d t=%v != reference V=%d t=%v",
					trial, mode, g, s.Cap, vEx, tEx, wantV, wantT)
			}
		}
	}
}

// TestLadderEdgeCases: clamping and degenerate ranges (the lo <= 0 input
// used to loop forever: 0*2 == 0).
func TestLadderEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi int64
		want   []int64
	}{
		{"zero lo", 0, 8, []int64{1, 2, 4, 8}},
		{"negative lo", -5, 4, []int64{1, 2, 4}},
		{"lo == hi", 16, 16, []int64{16}},
		{"hi below lo", 16, 8, nil},
		{"hi zero", 1, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Ladder(tc.lo, tc.hi)
			if len(got) != len(tc.want) {
				t.Fatalf("Ladder(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("Ladder(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
				}
			}
		})
	}
}

// TestRefineEdgeCases: degenerate brackets and tiny counts stay inside
// [lo, hi], deduped and strictly increasing.
func TestRefineEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		center, lo, hi int64
		n              int
	}{
		{"lo == hi", 100, 64, 64, 7},
		{"n == 1", 100, 1, 1000, 1},
		{"n == 0", 100, 1, 1000, 0},
		{"center below lo", 2, 10, 1000, 9},
		{"center above hi", 5000, 1, 1000, 9},
		{"center zero", 0, 1, 1000, 5},
		{"lo zero", 10, 0, 1000, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := Refine(tc.center, tc.lo, tc.hi, tc.n)
			if len(vs) == 0 {
				t.Fatalf("Refine(%d, %d, %d, %d) empty", tc.center, tc.lo, tc.hi, tc.n)
			}
			lo := tc.lo
			if lo < 1 {
				lo = 1
			}
			for i, v := range vs {
				if v < lo || v > tc.hi {
					t.Errorf("candidate %d outside [%d, %d]: %v", v, lo, tc.hi, vs)
				}
				if i > 0 && v <= vs[i-1] {
					t.Errorf("not strictly increasing: %v", vs)
				}
			}
		})
	}
	if vs := Refine(100, 64, 64, 7); len(vs) != 1 || vs[0] != 64 {
		t.Errorf("degenerate bracket: %v, want [64]", vs)
	}
	if vs := Refine(100, 64, 32, 7); vs != nil {
		t.Errorf("inverted bracket: %v, want nil", vs)
	}
}
