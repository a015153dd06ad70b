package main

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// gridPoint is one simulated (grid, height, schedule) point.
type gridPoint struct {
	g    model.Grid3D
	v    int64
	m    model.Machine
	mode sim.Mode
	cap  sim.Capability
}

// desSplit is the simulator time of a set of points split into the
// activity-graph build (sim) and the event-engine run (simnet).
type desSplit struct {
	build, run float64 // seconds
	activities int
}

func (d desSplit) addTo(layer map[string]float64) {
	layer["sim.build_s"] = d.build
	layer["simnet.run_s"] = d.run
	layer["simnet.activities"] = float64(d.activities)
	if d.run > 0 {
		layer["simnet.activities_per_s"] = float64(d.activities) / d.run
	}
}

// decompose re-simulates each point twice, each call under its own span:
// sim.BuildStats builds the activity graph only, Simulator.Simulate builds
// and runs it. The engine's share is the difference. Each point is one
// operation of the trace.
func decompose(tr *tracer, prefix string, pts []gridPoint) (desSplit, error) {
	var d desSplit
	sm := sim.NewSimulator()
	for _, p := range pts {
		cfg, err := sim.GridConfig(p.g, p.v, p.m, p.mode, p.cap)
		if err != nil {
			return d, err
		}
		op := fmt.Sprintf("%s/%dx%dx%d/%dx%d/V=%d/%s", prefix, p.g.I, p.g.J, p.g.K, p.g.PI, p.g.PJ, p.v, p.mode)
		root := tr.begin(op, spanRef{}, "point")
		sp := tr.begin(op, root, "sim.BuildStats")
		t0 := time.Now()
		acts, _, err := sim.BuildStats(cfg)
		build := time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			root.end()
			return d, err
		}
		sp = tr.begin(op, root, "sim.Simulator.Simulate")
		t0 = time.Now()
		_, err = sm.Simulate(cfg)
		total := time.Since(t0).Seconds()
		sp.end()
		root.end()
		if err != nil {
			return d, err
		}
		d.build += build
		d.run += total - build
		d.activities += acts
	}
	return d, nil
}

func addCacheLayer(layer map[string]float64, cs sim.CacheStats) {
	layer["sim.cache_hits"] = float64(cs.Hits)
	layer["sim.cache_misses"] = float64(cs.Misses)
	layer["sim.cache_evals"] = float64(cs.Evals)
	layer["sim.cache_coalesced"] = float64(cs.Coalesced)
	layer["sim.cache_evictions"] = float64(cs.Evictions)
	if n := cs.Hits + cs.Misses; n > 0 {
		layer["sim.cache_hit_ratio"] = float64(cs.Hits) / float64(n)
	}
}

// addTraceLayer records the traced run's own cost: the same pass timed
// without and with spans.
func addTraceLayer(layer map[string]float64, untraced, traced float64, spans int) {
	layer["trace.untraced_s"] = untraced
	layer["trace.traced_s"] = traced
	if untraced > 0 {
		layer["trace.overhead_frac"] = (traced - untraced) / untraced
	}
	layer["trace.spans"] = float64(spans)
}
