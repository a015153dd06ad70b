package runner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/stencil"
)

// rampBoundary is a coordinate-dependent positive boundary: every outside
// read sees a different value, so an executor that resolves a boundary
// predecessor at the wrong point cannot agree with the sequential oracle.
func rampBoundary(q ilmath.Vec) float64 {
	v := 2.0
	for x, c := range q {
		v += float64(x+1) * math.Abs(float64(c))
	}
	return v
}

// oracleKernels returns the kernels the property tests sweep for dimension
// n: the paper's kernel, a Weighted kernel over the full unit set in a
// permuted order, and a Weighted kernel over a two-dependence subset.
func oracleKernels(r *rand.Rand, n int) []stencil.Kernel {
	full := deps.Unit(n).Vectors()
	if n == 2 {
		full = append(full, ilmath.V(1, 1))
	}
	perm := make([]ilmath.Vec, len(full))
	for i, p := range r.Perm(len(full)) {
		perm[i] = full[p]
	}
	weights := []float64{0.5, 0.3, 0.2}[:len(perm)]
	permuted, err := stencil.NewWeighted("permuted", deps.MustNewSet(perm...), weights, true)
	if err != nil {
		panic(err)
	}
	subset, err := stencil.NewWeighted("subset", deps.MustNewSet(perm[0], perm[1]), []float64{0.75, 0.375}, false)
	if err != nil {
		panic(err)
	}
	var paper stencil.Kernel = stencil.Sqrt3D{}
	if n == 2 {
		paper = stencil.Sum2D{}
	}
	return []stencil.Kernel{paper, permuted, subset}
}

// requireExact fails unless got equals the oracle bit for bit: the
// executors and RunSequential evaluate the same Kernel.Eval on the same
// predecessors, so any difference is an indexing bug.
func requireExact(t *testing.T, what string, got *stencil.Grid, diff float64) {
	t.Helper()
	for _, v := range got.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: non-finite value %g hides differences", what, v)
		}
	}
	if diff != 0 {
		t.Fatalf("%s: max|Δ| = %g against the sequential oracle, want 0", what, diff)
	}
}

// TestPropExecutor3DMatchesOracle sweeps random 3-D shapes, processor
// grids, tile heights (partial last tiles included), both modes and
// dependence orders and subsets, under a coordinate-dependent boundary.
func TestPropExecutor3DMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		pi, pj := r.Int63n(3)+1, r.Int63n(3)+1
		ti, tj := r.Int63n(4)+1, r.Int63n(4)+1
		k := r.Int63n(24) + 1
		v := r.Int63n(k) + 1
		for _, kern := range oracleKernels(r, 3) {
			for _, mode := range []Mode{Blocking, Overlapped} {
				cfg := Config{
					Grid:     model.Grid3D{I: pi * ti, J: pj * tj, K: k, PI: pi, PJ: pj},
					V:        v,
					Kernel:   kern,
					Boundary: rampBoundary,
					Mode:     mode,
				}
				what := fmt.Sprintf("trial %d: %s %v on %+v V=%d deps %v",
					trial, kern.Name(), mode, cfg.Grid, v, kern.Deps())
				grid, _ := runAll(t, cfg)
				diff, err := VerifySequential(grid, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireExact(t, what, grid, diff)
			}
		}
	}
}

// TestPropExecutor2DMatchesOracle does the same for the 2-D strip executor
// over random spaces, rank counts and tile sides.
func TestPropExecutor2DMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		i1, i2 := r.Int63n(40)+1, r.Int63n(30)+1
		s1 := r.Int63n(i1) + 1
		ranks := int(min(r.Int63n(5)+1, i2))
		for _, kern := range oracleKernels(r, 2) {
			for _, mode := range []Mode{Blocking, Overlapped} {
				cfg := Config2D{I1: i1, I2: i2, S1: s1, Kernel: kern, Boundary: rampBoundary, Mode: mode}
				what := fmt.Sprintf("trial %d: %s %v on %dx%d S1=%d ranks=%d deps %v",
					trial, kern.Name(), mode, i1, i2, s1, ranks, kern.Deps())
				grid, _ := runAll2D(t, ranks, cfg)
				diff, err := VerifySequential(grid, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireExact(t, what, grid, diff)
			}
		}
	}
}
