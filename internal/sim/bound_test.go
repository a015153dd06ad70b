package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
)

// TestGridCPUBoundProperty checks GridCPUBound on random grid points: on
// every processor grid from 1×1 to 4×4, with K not a power of two (so every
// rung but V = 1 has a partial last tile), machine parameters scaled by up
// to e^±2, both schedules and all three capabilities, and every rung of the
// ladder 1..K, the bound must not exceed the simulated makespan. It must
// also equal the busy time of the busiest simulated CPU, which is what the
// bound claims to compute — so a bound that is merely loose (a dropped
// term) fails as surely as one that is unsound.
func TestGridCPUBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scale := func(x float64) float64 { return x * math.Exp(4*rng.Float64()-2) }
	for pi := int64(1); pi <= 4; pi++ {
		for pj := int64(1); pj <= 4; pj++ {
			k := 60 + rng.Int63n(300)
			if k&(k-1) == 0 {
				k++ // keep K off the powers of two
			}
			g := model.Grid3D{I: pi * (1 + rng.Int63n(4)), J: pj * (1 + rng.Int63n(4)), K: k, PI: pi, PJ: pj}
			m := model.PentiumCluster()
			m.Tc = scale(m.Tc)
			m.Tt = scale(m.Tt)
			m.FillMPIBase = scale(m.FillMPIBase)
			m.FillMPIPerByte = scale(m.FillMPIPerByte)
			m.FillKernelBase = scale(m.FillKernelBase)
			m.FillKernelPerByte = scale(m.FillKernelPerByte)
			for _, mode := range []Mode{Blocking, Overlapped} {
				for _, cap := range []Capability{CapNone, CapDMA, CapFullDuplex} {
					for v := int64(1); v <= g.K; v *= 2 {
						checkCPUBound(t, g, v, m, mode, cap)
					}
				}
			}
		}
	}
}

func checkCPUBound(t *testing.T, g model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability) {
	t.Helper()
	r, err := SimulateGridWith(g, v, m, mode, cap, GridOpts{Metrics: true})
	if err != nil {
		t.Fatalf("%+v V=%d %s %s: %v", g, v, mode, cap, err)
	}
	bound := GridCPUBound(g, v, m, mode, cap)
	if bound*(1-GridBoundSlack) > r.Makespan {
		t.Errorf("%+v V=%d %s %s: bound %g above makespan %g", g, v, mode, cap, bound, r.Makespan)
	}
	busiest := 0.0
	for _, rs := range r.Obs.Resources {
		if rs.Kind == obs.KindCPU {
			busiest = math.Max(busiest, rs.Busy)
		}
	}
	if math.Abs(bound-busiest) > GridBoundSlack*busiest {
		t.Errorf("%+v V=%d %s %s: bound %g != busiest CPU's work %g", g, v, mode, cap, bound, busiest)
	}
}

// TestGridCPUBoundInvalid: out-of-range inputs bound nothing.
func TestGridCPUBoundInvalid(t *testing.T) {
	g := model.Grid3D{I: 16, J: 16, K: 64, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	for _, v := range []int64{0, -1, 65} {
		if b := GridCPUBound(g, v, m, Overlapped, CapDMA); b != 0 {
			t.Errorf("V=%d: bound %g, want 0", v, b)
		}
	}
	if b := GridCPUBound(model.Grid3D{I: 15, J: 16, K: 64, PI: 4, PJ: 4}, 8, m, Blocking, CapNone); b != 0 {
		t.Errorf("invalid grid: bound %g, want 0", b)
	}
}
