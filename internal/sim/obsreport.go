package sim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// obsReport aggregates the engine's string-free interval log into the phase
// accounting of Result.Obs. Resource names are synthesized here rather than
// read off the resources because metrics-only runs build unnamed resources
// (labels cost allocations the sweeps refuse to pay); the synthesized names
// match what a traced build would have used, so obs.TracksFromTrace on a
// traced run of the same config yields the identical report — up to
// resources that never executed anything (idle fabric links of a sparse
// traffic pattern): this report lists them with zero busy time, while a
// trace never mentions them.
func (b *builder) obsReport(makespan float64) *obs.Report {
	ivs := b.eng.Intervals()
	// idx[r] is resource r's track, −1 until added.
	idx := make([]int, b.eng.NumResources())
	for r := range idx {
		idx[r] = -1
	}
	var tracks []obs.Track
	add := func(r simnet.ResID, name string, kind obs.ResourceKind, node int64, level int) {
		if idx[r] >= 0 {
			return
		}
		idx[r] = len(tracks)
		tracks = append(tracks, obs.Track{Name: name, Kind: kind, Node: node, Level: level})
	}
	for p := range b.nodes {
		n := &b.nodes[p]
		add(n.cpu, fmt.Sprintf("cpu%d", p), obs.KindCPU, int64(p), 0)
		if n.commIn == n.commOut {
			add(n.commIn, fmt.Sprintf("comm%d", p), obs.KindNIC, int64(p), 0)
		} else {
			add(n.commIn, fmt.Sprintf("rx%d", p), obs.KindNICIn, int64(p), 0)
			add(n.commOut, fmt.Sprintf("tx%d", p), obs.KindNICOut, int64(p), 0)
		}
	}
	if b.cfg.Network == SharedBus {
		add(b.bus, "bus", obs.KindBus, -1, 0)
	}
	if b.fabric != nil {
		b.fabric.Links(func(level int, up bool, index int, r simnet.ResID) {
			dir, kind := "up", obs.KindUplink
			if !up {
				dir, kind = "down", obs.KindDownlink
			}
			add(r, fmt.Sprintf("%s%d.%d", dir, level, index), kind, int64(index), level)
		})
	}
	// Bucket-fill the per-track interval slices out of one backing array
	// (count pass, then carve, then fill) — the log can hold millions of
	// entries and per-track append growth would double-copy most of them.
	counts := make([]int, len(tracks))
	for i := range ivs {
		counts[idx[ivs[i].Res]]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	backing := make([]obs.Interval, 0, total)
	for t := range tracks {
		n := len(backing)
		tracks[t].Intervals = backing[n : n : n+counts[t]]
		backing = backing[:n+counts[t]]
	}
	for i := range ivs {
		t := idx[ivs[i].Res]
		tracks[t].Intervals = append(tracks[t].Intervals, obs.Interval{
			Ready: ivs[i].Ready, Start: ivs[i].Start, End: ivs[i].End,
		})
	}
	rep := obs.Analyze(makespan, tracks)
	rep.Retransmits = b.retransmits
	rep.Pauses = b.pauseCount
	if len(b.linkRetx) > 0 {
		rep.LinkRetransmits = make(map[string]int, len(b.linkRetx))
		for k, v := range b.linkRetx {
			rep.LinkRetransmits[fmt.Sprintf("p%d->p%d", k/b.numProcs, k%b.numProcs)] = v
		}
	}
	return rep
}
