package sim

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/fault"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/space"
	"repro/internal/topo"
)

// GridTopology builds the Topology of the paper's Section 5 experiments: a
// model.Grid3D iteration space with tiles (I/PI)×(J/PJ)×v, mapped along the
// k axis (the largest dimension), with exact handling of the partial last
// tile when v does not divide K.
func GridTopology(c model.Grid3D, v int64, bytesPerElem int64) (Topology, error) {
	if err := c.Validate(); err != nil {
		return Topology{}, err
	}
	if v <= 0 || v > c.K {
		return Topology{}, fmt.Errorf("sim: tile height %d out of range (0, %d]", v, c.K)
	}
	if bytesPerElem <= 0 {
		return Topology{}, fmt.Errorf("sim: non-positive element size %d", bytesPerElem)
	}
	ti, tj := c.TileI(), c.TileJ()
	kt := c.KTiles(v)
	ts, err := space.Rect(c.PI, c.PJ, kt)
	if err != nil {
		return Topology{}, err
	}
	const mapDim = 2
	m, err := schedule.NewMapping(ts, mapDim)
	if err != nil {
		return Topology{}, err
	}
	// height of the k-extent of tile tc (the last k tile may be partial).
	height := func(tc ilmath.Vec) int64 {
		if tc[2] == kt-1 {
			return c.K - v*(kt-1)
		}
		return v
	}
	topo := Topology{
		TileSpace: ts,
		Map:       m,
		TileVolume: func(tc ilmath.Vec) int64 {
			return ti * tj * height(tc)
		},
		MsgBytes: func(from, to ilmath.Vec) int64 {
			// The message carries the tile face of the producing tile
			// perpendicular to the dependence direction.
			h := height(from)
			switch {
			case to[0] == from[0]+1: // i-direction: j×k face
				return tj * h * bytesPerElem
			case to[1] == from[1]+1: // j-direction: i×k face
				return ti * h * bytesPerElem
			default: // k-direction (intra-processor; not used as a message)
				return ti * tj * bytesPerElem
			}
		},
	}
	return topo, nil
}

// GridConfig assembles a full simulation Config for a Grid3D experiment.
func GridConfig(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability) (Config, error) {
	topo, err := GridTopology(c, v, m.BytesPerElem)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Topo:    topo,
		Deps:    deps.Stencil3D(),
		Machine: m,
		Mode:    mode,
		Cap:     cap,
	}, nil
}

// SimulateGrid is the one-call entry point used by the benchmark harness:
// simulate one (experiment, tile height, mode) combination on a switched
// network and return the makespan in seconds.
func SimulateGrid(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability) (Result, error) {
	return SimulateGridNet(c, v, m, mode, cap, Switched)
}

// SimulateGridNet is SimulateGrid with an explicit interconnect model.
func SimulateGridNet(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, net Network) (Result, error) {
	return SimulateGridWith(c, v, m, mode, cap, GridOpts{Net: net})
}

// SimulateGridFault is SimulateGridNet under a fault-injection plan. An
// inactive plan leaves the result byte-identical to SimulateGridNet's.
func SimulateGridFault(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, net Network, fp fault.Plan) (Result, error) {
	return SimulateGridWith(c, v, m, mode, cap, GridOpts{Net: net, Fault: fp})
}

// GridOpts bundles the optional knobs of a grid simulation: the interconnect
// model (zero value: switched), the switch hierarchy (zero value: flat), a
// fault plan (zero value: fault-free), the phase-accounting metrics pass and
// the full labeled trace (both off by default).
type GridOpts struct {
	Net          Network
	Interconnect topo.Spec
	Fault        fault.Plan
	Metrics      bool
	Trace        bool
}

// SimulateGridWith is SimulateGrid with the full option set; the other
// SimulateGrid* entry points are shorthands for common opt subsets.
func SimulateGridWith(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, o GridOpts) (Result, error) {
	cfg, err := GridConfig(c, v, m, mode, cap)
	if err != nil {
		return Result{}, err
	}
	cfg.Network = o.Net
	cfg.Interconnect = o.Interconnect
	if o.Fault.Active() {
		fp := o.Fault
		cfg.Fault = &fp
	}
	cfg.Metrics = o.Metrics
	cfg.Trace = o.Trace
	return Simulate(cfg)
}

// GridBoundSlack is the relative tolerance under which GridCPUBound is
// compared against a simulated makespan. The engine adds a processor's
// activity durations one float64 at a time while the bound is a closed
// form, so the two differ by at most N·2⁻⁵³ relative for N activities —
// about 1e-8 at 1e8 activities, two orders below this slack.
const GridBoundSlack = 1e-6

// GridCPUBound returns the CPU work of the busiest processor of the
// fault-free grid point (c, v, m, mode, cap): a lower bound on its makespan,
// because both schedule builders chain every CPU activity of a processor
// into one program order. The busiest processor has the most neighbours in
// both processor dimensions: it computes TileI·TileJ·K points and, per face
// direction of extent P, handles min(P−1, 2) message ends (a receive from
// below, a send above) for every k-tile, the partial last tile included.
// Each end costs FillMPI+FillKernel on the CPU in blocking mode or without
// DMA, and FillMPI alone when the overlapped schedule hands the kernel
// copies to the communication engines. Invalid inputs yield 0, which
// bounds nothing.
func GridCPUBound(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability) float64 {
	if c.Validate() != nil || v <= 0 || v > c.K {
		return 0
	}
	ti, tj := c.TileI(), c.TileJ()
	kt := c.KTiles(v)
	end := func(bytes int64) float64 {
		if mode == Blocking || cap == CapNone {
			return m.FillMPI(bytes) + m.FillKernel(bytes)
		}
		return m.FillMPI(bytes)
	}
	// faces of one k-tile of height h, over both face directions
	faces := func(h int64) float64 {
		return float64(min(c.PI-1, 2))*end(tj*h*m.BytesPerElem) +
			float64(min(c.PJ-1, 2))*end(ti*h*m.BytesPerElem)
	}
	return float64(ti*tj*c.K)*m.Tc + float64(kt-1)*faces(v) + faces(c.K-v*(kt-1))
}
