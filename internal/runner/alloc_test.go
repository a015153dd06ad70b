package runner

import (
	"testing"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/stencil"
)

// allocsPerRun measures the heap allocations of one in-process run of fn
// on n ranks, averaged over a few runs.
func allocsPerRun(t *testing.T, n int, fn func(c mp.Comm) error) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		if err := mp.Launch(n, fn); err != nil {
			t.Fatal(err)
		}
	})
}

// checkAllocBudget fails if quadrupling the points per tile at a fixed
// tile count raised the allocation count by more than a quarter: the tile
// kernels allocate per tile and per message, never per point.
func checkAllocBudget(t *testing.T, what string, base, scaled float64) {
	t.Helper()
	t.Logf("%s: %.0f allocs at 1x points, %.0f at 4x", what, base, scaled)
	if scaled > 1.25*base {
		t.Errorf("%s: %.0f allocs at 4x the points per tile, budget 1.25 x %.0f", what, scaled, base)
	}
}

func TestRunAllocBudget(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		allocs := func(k int64) float64 {
			cfg := Config{
				Grid:   model.Grid3D{I: 8, J: 8, K: k, PI: 2, PJ: 2},
				V:      k / 8,
				Kernel: stencil.Sqrt3D{},
				Mode:   mode,
			}
			return allocsPerRun(t, 4, func(c mp.Comm) error {
				_, _, err := Run(c, cfg)
				return err
			})
		}
		checkAllocBudget(t, "Run "+mode.String(), allocs(64), allocs(256))
	}
}

func TestRun2DAllocBudget(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		allocs := func(i1 int64) float64 {
			cfg := Config2D{I1: i1, I2: 64, S1: i1 / 8, Kernel: stencil.Sum2D{}, Mode: mode}
			return allocsPerRun(t, 4, func(c mp.Comm) error {
				_, _, err := Run2D(c, cfg)
				return err
			})
		}
		checkAllocBudget(t, "Run2D "+mode.String(), allocs(64), allocs(256))
	}
}
