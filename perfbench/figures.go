package main

import (
	_ "embed"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// The figures workload is the offline paper evaluation. One pass runs
// three parts, each on fresh caches: the Fig. 9/10/11 sweeps with both
// schedules' refined optima plus the Fig. 12 table (what `tilebench fig9
// fig10 fig11 fig12` computes), the exhaustive-tier optimum query on the
// Fig. 9 space for each schedule, and one 256-rank weak-scaling point.
// The inputs are fixed, so the seed is not used.

// figuresGolden holds every simulated statistic of one pass as captured
// when the benchmark was defined. A change that only speeds the simulator
// up must leave it byte-identical.
//
//go:embed testdata/figures.golden
var figuresGolden string

// figOp is one timed operation of a pass and the digest of its output.
type figOp struct {
	name   string
	dur    float64 // seconds
	digest string
}

// figPass is one completed pass.
type figPass struct {
	ops    []figOp
	caches []*sim.Cache
	exact  map[sim.Mode][2]float64 // exhaustive-tier answer {V, T} per schedule
	scale  []experiments.ScaleRow
}

func (p *figPass) newCache() *sim.Cache {
	c := sim.NewCache()
	p.caches = append(p.caches, c)
	return c
}

// part sums the durations of the named ops.
func (p *figPass) part(names ...string) float64 {
	t := 0.0
	for _, op := range p.ops {
		for _, n := range names {
			if op.name == n {
				t += op.dur
			}
		}
	}
	return t
}

func (p *figPass) total() float64 { return p.part(figOpNames...) }

var (
	figOpNames   = []string{"fig9", "fig10", "fig11", "fig12", "exact-overlapped", "exact-blocking", "scale-256"}
	figFigureOps = figOpNames[:4]
	figExactOps  = figOpNames[4:6]
)

func digestRows[T any](b *strings.Builder, rows []T) {
	for _, r := range rows {
		fmt.Fprintf(b, "%+v\n", r)
	}
}

// timeOp runs fn as operation name of pass, under a root span when traced.
func (p *figPass) timeOp(tr *tracer, pass int, name string, fn func(op string, root spanRef) (string, error)) error {
	op := fmt.Sprintf("pass%d/%s", pass, name)
	root := tr.begin(op, spanRef{}, "figures."+name)
	t0 := time.Now()
	digest, err := fn(op, root)
	d := time.Since(t0).Seconds()
	root.end()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.ops = append(p.ops, figOp{name: name, dur: d, digest: digest})
	return nil
}

// figuresPass runs one pass of the workload.
func figuresPass(tr *tracer, pass int) (*figPass, error) {
	p := &figPass{exact: make(map[sim.Mode][2]float64)}
	sweeps := []experiments.Sweep{experiments.Fig9(), experiments.Fig10(), experiments.Fig11()}
	for _, s := range sweeps {
		s := s
		err := p.timeOp(tr, pass, s.ID, func(op string, root spanRef) (string, error) {
			s.Cache = p.newCache()
			var b strings.Builder
			sp := tr.begin(op, root, "experiments.Sweep.Run")
			rows, err := s.Run()
			sp.end()
			if err != nil {
				return "", err
			}
			digestRows(&b, rows)
			for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
				sp := tr.begin(op, root, "experiments.Sweep.OptimumRefined")
				v, t, err := s.OptimumRefined(mode)
				sp.end()
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "optimum %s V=%d T=%v\n", mode, v, t)
			}
			return b.String(), nil
		})
		if err != nil {
			return nil, err
		}
	}
	err := p.timeOp(tr, pass, "fig12", func(op string, root spanRef) (string, error) {
		for i := range sweeps {
			sweeps[i].Cache = p.newCache()
		}
		sp := tr.begin(op, root, "experiments.Fig12For")
		rows, err := experiments.Fig12For(sweeps)
		sp.end()
		if err != nil {
			return "", err
		}
		var b strings.Builder
		digestRows(&b, rows)
		return b.String(), nil
	})
	if err != nil {
		return nil, err
	}
	exact := experiments.Fig9()
	exact.Exact = true
	exact.Cache = p.newCache()
	for i, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
		mode := mode
		err := p.timeOp(tr, pass, figExactOps[i], func(op string, root spanRef) (string, error) {
			sp := tr.begin(op, root, "experiments.Sweep.Optimum")
			v, t, err := exact.Optimum(mode)
			sp.end()
			if err != nil {
				return "", err
			}
			p.exact[mode] = [2]float64{float64(v), t}
			return fmt.Sprintf("optimum %s V=%d T=%v\n", mode, v, t), nil
		})
		if err != nil {
			return nil, err
		}
	}
	err = p.timeOp(tr, pass, "scale-256", func(op string, root spanRef) (string, error) {
		s := scalePoint256()
		s.Cache = p.newCache()
		sp := tr.begin(op, root, "experiments.ScaleSweep.Run")
		rows, err := s.Run()
		sp.end()
		if err != nil {
			return "", err
		}
		p.scale = rows
		var b strings.Builder
		digestRows(&b, rows)
		return b.String(), nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// scalePoint256 is DefaultScaleSweep restricted to its 16x16 point.
func scalePoint256() experiments.ScaleSweep {
	s := experiments.DefaultScaleSweep()
	s.Points = []experiments.ScalePoint{{PI: 16, PJ: 16}}
	return s
}

// passDigest renders a pass the way the golden file stores it.
func passDigest(p *figPass) string {
	var b strings.Builder
	for _, op := range p.ops {
		fmt.Fprintf(&b, "== %s\n%s", op.name, op.digest)
	}
	return b.String()
}

// parseGolden splits a golden file into its per-operation sections.
func parseGolden(text string) map[string]string {
	out := make(map[string]string)
	var name string
	var b strings.Builder
	flush := func() {
		if name != "" {
			out[name] = b.String()
		}
		b.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "== ") {
			flush()
			name = strings.TrimSpace(strings.TrimPrefix(line, "== "))
			continue
		}
		b.WriteString(line)
	}
	flush()
	return out
}

// compareGolden reports the first line where an operation's output
// differs from its golden section.
func compareGolden(golden map[string]string, op, got string) error {
	want, ok := golden[op]
	if !ok {
		return fmt.Errorf("%s: no golden section", op)
	}
	if want == got {
		return nil
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Errorf("%s: line %d differs from golden:\n  got  %q\n  want %q", op, i+1, gl, wl)
		}
	}
	return fmt.Errorf("%s: differs from golden", op)
}

// checkPass verifies one pass: every operation's output against the
// golden, the exhaustive-tier answers against the tiered search, and the
// scaling point against experiments.CheckScale. Each operation counts as
// one attempt.
func checkPass(o *outcome, p *figPass, golden map[string]string, tiered map[sim.Mode][2]float64) {
	for _, op := range p.ops {
		o.attempted++
		if err := compareGolden(golden, op.name, op.digest); err != nil {
			o.fail("%v", err)
			continue
		}
		switch op.name {
		case "exact-overlapped", "exact-blocking":
			mode := sim.Overlapped
			if op.name == "exact-blocking" {
				mode = sim.Blocking
			}
			if p.exact[mode] != tiered[mode] {
				o.fail("%s: exhaustive tier %v differs from Sweep.Optimum %v", op.name, p.exact[mode], tiered[mode])
			}
		case "scale-256":
			if err := experiments.CheckScale(p.scale); err != nil {
				o.fail("scale-256: %v", err)
			}
		}
	}
}

// tieredFig9 is the reference the exhaustive-tier query must match:
// Sweep.Optimum (the tiered search) on the same sweep and mode.
func tieredFig9() (map[sim.Mode][2]float64, error) {
	s := experiments.Fig9()
	s.Cache = sim.NewCache()
	out := make(map[sim.Mode][2]float64)
	for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
		v, t, err := s.Optimum(mode)
		if err != nil {
			return nil, err
		}
		out[mode] = [2]float64{float64(v), t}
	}
	return out, nil
}

// figuresWarmup is the set-up step: a Fig. 9 sweep at K/16 with both
// refined optima, which loads code and grows the heap before timing.
func figuresWarmup() error {
	s := experiments.Fig9()
	s.Grid.K /= 16
	s.Heights = experiments.Ladder(4, s.Grid.K/4)
	s.Cache = sim.NewCache()
	if _, err := s.Run(); err != nil {
		return err
	}
	for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
		if _, _, err := s.OptimumRefined(mode); err != nil {
			return err
		}
	}
	return nil
}

func runFigures(e *env, traced bool) (*outcome, error) {
	setup, err := setupSamples(setupRuns, figuresWarmup)
	if err != nil {
		return nil, err
	}
	golden := parseGolden(figuresGolden)
	tiered, err := tieredFig9()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if traced {
		return figuresTraced(o, golden, tiered)
	}

	var passes []*figPass
	peaks, err := measurePasses(e.seconds, func(i int) error {
		p, err := figuresPass(nil, i)
		passes = append(passes, p)
		return err
	})
	if err != nil {
		return nil, err
	}

	// The operation a user of this workload waits for is a whole pass: its
	// parts share one heap, so where a garbage collection lands moves time
	// between parts from pass to pass, while the pass total holds steady.
	var passT, figT, exactT, scaleT []float64
	for _, p := range passes {
		checkPass(o, p, golden, tiered)
		passT = append(passT, p.total())
		figT = append(figT, p.part(figFigureOps...))
		exactT = append(exactT, p.part(figExactOps...))
		scaleT = append(scaleT, p.part("scale-256"))
	}
	ls := summarize(passT)
	o.e2e = map[string]float64{
		"setup_s":     median(setup),
		"peak_rss_mb": median(peaks),
		"pass_s":      median(passT),
		"op_p50_ms":   1e3 * ls.P50,
		"op_p99_ms":   1e3 * ls.P99,
	}
	note := fmt.Sprintf("(median of %d passes)", len(passes))
	o.named = []namedMetric{
		{"figures_s", median(figT), "s", note},
		{"exact_query_s", median(exactT), "s", note},
		{"scale_point_s", median(scaleT), "s", note},
	}
	return o, nil
}

// figuresTraced is the traced run: one untraced and one traced pass (their
// difference is the tracing overhead), the Fig. 9 pool speed-up, and the
// Fig. 9 sweep points split into graph build and engine run.
func figuresTraced(o *outcome, golden map[string]string, tiered map[sim.Mode][2]float64) (*outcome, error) {
	tr := newTracer()
	debug.FreeOSMemory()
	r0 := readRuntime()
	plain, err := figuresPass(nil, 0)
	if err != nil {
		return nil, err
	}
	r1 := readRuntime()
	checkPass(o, plain, golden, tiered)
	debug.FreeOSMemory()
	traced, err := figuresPass(tr, 1)
	if err != nil {
		return nil, err
	}
	checkPass(o, traced, golden, tiered)

	layer := runtimeLayer(r1.minus(r0))
	var cs sim.CacheStats
	for _, c := range plain.caches {
		s := c.Stats()
		cs.Hits += s.Hits
		cs.Misses += s.Misses
		cs.Evals += s.Evals
		cs.Coalesced += s.Coalesced
		cs.Evictions += s.Evictions
	}
	addCacheLayer(layer, cs)

	// Pool speed-up: the retained sequential sweep against the worker pool,
	// each from a clean heap, median over three pairs.
	s := experiments.Fig9()
	var speedup, seqT []float64
	for i := 0; i < 3; i++ {
		debug.FreeOSMemory()
		sp := tr.begin("fig9-pool", spanRef{}, "experiments.Sweep.RunSequential")
		t0 := time.Now()
		seqRows, err := s.RunSequential()
		seq := time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return nil, err
		}
		debug.FreeOSMemory()
		pool := s
		pool.Cache = sim.NewCache()
		sp = tr.begin("fig9-pool", spanRef{}, "experiments.Sweep.Run")
		t0 = time.Now()
		poolRows, err := pool.Run()
		poolT := time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return nil, err
		}
		o.attempted++
		if fmt.Sprint(seqRows) != fmt.Sprint(poolRows) {
			o.fail("fig9: RunSequential rows differ from Run rows")
		}
		speedup = append(speedup, seq/poolT)
		seqT = append(seqT, seq)
	}
	layer["experiments.pool_speedup"] = median(speedup)

	var pts []gridPoint
	for _, v := range s.Heights {
		for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
			pts = append(pts, gridPoint{g: s.Grid, v: v, m: s.Machine, mode: mode, cap: s.ModeCap(mode)})
		}
	}
	debug.FreeOSMemory()
	dec, err := decompose(tr, "fig9", pts)
	if err != nil {
		return nil, err
	}
	dec.addTo(layer)
	layer["sim.des_share"] = (dec.build + dec.run) / median(seqT)

	o.spans = tr.snapshot()
	addTraceLayer(layer, plain.total(), traced.total(), len(o.spans))
	o.layer = layer
	return o, nil
}
