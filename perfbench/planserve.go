package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/estimate"
	"repro/internal/experiments"
	"repro/internal/planapi"
	"repro/internal/sim"
)

// The plan-serve workload is the planning service under a closed loop:
// nproc client connections replay the seeded request stream against a
// fresh tileserve process per pass, each client sending its next request
// only once the previous answer arrived, as a scheduler that waits for
// the tile height before launching its job would.

// serverCacheEntries is the tileserve cache bound the benchmark runs with
// (tileserve's default); the traced in-process replay uses the same bound.
const serverCacheEntries = 4096

// warmupBody is the set-up request: a shape outside the stream's universe,
// so warming the server up leaves the measured cache cold.
const warmupBody = `{"version":1,"space":[4,4,256],"procs":[2,2]}`

// serverProc is one running tileserve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	drain  chan struct{} // closed when the stdout reader finishes
}

// startServer launches tileserve on a free loopback port, waits for its
// listening line and a healthy /healthz, and sends the warm-up request.
func startServer(bin string, conc int) (*serverProc, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-concurrency", strconv.Itoa(conc),
		"-rate", "0", // unlimited: the closed loop must never be shed
		"-queue", "64",
		"-queue-wait", "120s",
		"-request-timeout", "120s",
		"-cache-entries", strconv.Itoa(serverCacheEntries),
		"-drain-timeout", "10s")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tileserve: %w", err)
	}
	s := &serverProc{cmd: cmd, drain: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drain)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "tileserve: listening on "); ok {
				addrc <- a
			}
		}
	}()
	select {
	case a := <-addrc:
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("tileserve did not announce its address")
	case <-s.drain:
		s.kill()
		return nil, fmt.Errorf("tileserve exited during start-up")
	}
	s.client = newClient()
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
	}
	if err == nil {
		_, err = postPlan(s.client, s.base, []byte(warmupBody))
	}
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("tileserve set-up: %w", err)
	}
	return s, nil
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   150 * time.Second,
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time.
func (s *serverProc) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { <-s.drain; done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		// tileserve announces its address before it installs its SIGTERM
		// handler, so a stop right after start-up can end it by the
		// signal itself rather than by a drain. Either way it stopped.
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("tileserve did not drain; killed")
	}
}

func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.drain
	s.cmd.Wait()
}

// peakRSSMB reads the server's peak resident set size (VmHWM).
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// getJSON fetches path from the server into v.
func (s *serverProc) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverMetrics is the part of /metrics.json the benchmark reads.
type serverMetrics struct {
	Service struct {
		Totals struct {
			Admitted  uint64 `json:"admitted"`
			Shed      uint64 `json:"shed"`
			Coalesced uint64 `json:"coalesced"`
		} `json:"totals"`
		Cache map[string]uint64 `json:"cache"`
	} `json:"service"`
}

// serverMemstats is the part of /debug/vars the benchmark reads.
type serverMemstats struct {
	Memstats struct {
		TotalAlloc    uint64  `json:"TotalAlloc"`
		Mallocs       uint64  `json:"Mallocs"`
		GCCPUFraction float64 `json:"GCCPUFraction"`
	} `json:"memstats"`
}

// postPlan sends one request and decodes a 200 answer; any other status
// is an error.
func postPlan(c *http.Client, base string, body []byte) (planapi.PlanResult, error) {
	resp, err := c.Post(base+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return planapi.PlanResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return planapi.PlanResult{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return planapi.DecodeResult(resp.Body)
}

// served is the outcome of one request of a pass.
type served struct {
	lat float64 // seconds from send to the decoded answer
	res planapi.PlanResult
	err error
}

// replayHTTP drives the stream through the server with conc closed-loop
// clients, each on its own connection, and returns per-request outcomes
// in stream order plus the wall time of the whole stream.
func replayHTTP(s *serverProc, bodies [][]byte, conc int) ([]served, float64) {
	out := make([]served, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				t := time.Now()
				res, err := postPlan(c, s.base, bodies[i])
				out[i] = served{lat: time.Since(t).Seconds(), res: res, err: err}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0).Seconds()
}

// answerInProcess computes the answer a server gives for q, built exactly
// as tileserve builds it, against cache.
func answerInProcess(q planapi.PlanRequest, cache *sim.Cache) (planapi.PlanResult, error) {
	sw, err := q.Sweep()
	if err != nil {
		return planapi.PlanResult{}, err
	}
	sw.Cache = cache
	mode, err := q.SimMode()
	if err != nil {
		return planapi.PlanResult{}, err
	}
	out, err := sw.OptimumDetail(mode)
	if err != nil {
		return planapi.PlanResult{}, err
	}
	return resultFor(sw, mode, out), nil
}

func resultFor(sw experiments.Sweep, mode sim.Mode, out estimate.Outcome) planapi.PlanResult {
	g := sw.Grid
	return planapi.PlanResult{
		Version:        planapi.Version,
		Mode:           mode.String(),
		V:              out.V,
		G:              (g.I / g.PI) * (g.J / g.PJ) * out.V,
		TSeconds:       out.T,
		Tier:           out.Tier.String(),
		Probes:         out.Probes,
		FallbackReason: out.FallbackReason,
		SeedV:          planapi.SeedFor(g, sw.Machine, mode),
	}
}

// referenceAnswers computes the in-process answer of every distinct key
// of the stream on conc workers sharing one unbounded cache.
func referenceAnswers(reqs []planapi.PlanRequest, conc int) (map[string]planapi.PlanResult, error) {
	var keys []string
	byKey := make(map[string]planapi.PlanRequest)
	for _, q := range reqs {
		if _, ok := byKey[q.Key()]; !ok {
			byKey[q.Key()] = q
			keys = append(keys, q.Key())
		}
	}
	cache := sim.NewCache()
	res := make([]planapi.PlanResult, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				res[i], errs[i] = answerInProcess(byKey[keys[i]], cache)
			}
		}()
	}
	wg.Wait()
	out := make(map[string]planapi.PlanResult, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference answer for %s: %w", k, errs[i])
		}
		out[k] = res[i]
	}
	return out, nil
}

// checkServed counts every request as one attempt and fails it when the
// server refused it or answered differently from the in-process reference.
func checkServed(o *outcome, reqs []planapi.PlanRequest, got []served, ref map[string]planapi.PlanResult) {
	for i, s := range got {
		o.attempted++
		switch {
		case s.err != nil:
			o.fail("request %d (%s): %v", i, reqs[i].Key(), s.err)
		case s.res != ref[reqs[i].Key()]:
			o.fail("request %d (%s): served %+v, in-process %+v", i, reqs[i].Key(), s.res, ref[reqs[i].Key()])
		}
	}
}

// planPass is one pass: a fresh server, the whole stream, the server's
// own counters, and its shutdown.
type planPass struct {
	setup   float64
	wall    float64
	got     []served
	rssMB   float64
	metrics serverMetrics
	before  serverMemstats // right after set-up
	after   serverMemstats // after the stream
}

func runPlanPass(e *env, bodies [][]byte, conc int) (*planPass, error) {
	p := &planPass{}
	t0 := time.Now()
	s, err := startServer(e.tileserve, conc)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0).Seconds()
	err = s.getJSON("/debug/vars", &p.before)
	if err == nil {
		p.got, p.wall = replayHTTP(s, bodies, conc)
		err = s.getJSON("/metrics.json", &p.metrics)
	}
	if err == nil {
		err = s.getJSON("/debug/vars", &p.after)
	}
	if err == nil {
		p.rssMB, err = s.peakRSSMB()
	}
	if stopErr := s.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("tileserve shutdown: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func runPlanServe(e *env, traced bool) (*outcome, error) {
	conc := runtime.NumCPU()
	reqs := requestStream(e.seed, streamLen)
	bodies, err := encodeStream(reqs)
	if err != nil {
		return nil, err
	}
	ref, err := referenceAnswers(reqs, conc)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if traced {
		return planTraced(e, o, reqs, bodies, ref, conc)
	}

	runtime.GC() // drop the reference computation's garbage before timing
	var passes []*planPass
	start, last := time.Now(), time.Duration(0)
	for len(passes) == 0 || time.Since(start)+last <= e.seconds {
		t0 := time.Now()
		p, err := runPlanPass(e, bodies, conc)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		last = time.Since(t0)
	}
	setup := make([]float64, 0, setupRuns)
	for _, p := range passes {
		setup = append(setup, p.setup)
	}
	// At least setupRuns set-up samples per run, however long a pass takes.
	for len(setup) < setupRuns {
		t0 := time.Now()
		s, err := startServer(e.tileserve, conc)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("tileserve shutdown: %w", err)
		}
	}

	// Each pass has its own server, so each gives one sample of the peak
	// RSS; the median keeps an unlucky garbage-collection cycle from
	// setting it. Latency percentiles pool every request of the run.
	var wall, rss, lat []float64
	for _, p := range passes {
		checkServed(o, reqs, p.got, ref)
		wall = append(wall, p.wall)
		rss = append(rss, p.rssMB)
		for _, s := range p.got {
			lat = append(lat, s.lat)
		}
	}
	ls := summarize(lat)
	o.e2e = map[string]float64{
		"setup_s":     median(setup),
		"peak_rss_mb": median(rss),
		"pass_s":      median(wall),
		"op_p50_ms":   1e3 * ls.P50,
		"op_p99_ms":   1e3 * ls.P99,
	}
	note := fmt.Sprintf("(%d passes of %d requests from %d clients)", len(passes), len(reqs), conc)
	o.named = []namedMetric{
		{"plan_rps", float64(len(reqs)) / median(wall), "req/s", note},
		{"plan_p50_ms", 1e3 * ls.P50, "ms", ls.String()},
		{"plan_p99_ms", 1e3 * ls.P99, "ms", ls.String()},
	}
	return o, nil
}

// planTraced is the traced run. The server is a separate process, so its
// counters come from one server pass; the layer split comes from replaying
// the same stream in-process, once without spans and once with them, on a
// cache with the server's bound.
func planTraced(e *env, o *outcome, reqs []planapi.PlanRequest, bodies [][]byte, ref map[string]planapi.PlanResult, conc int) (*outcome, error) {
	p, err := runPlanPass(e, bodies, conc)
	if err != nil {
		return nil, err
	}
	checkServed(o, reqs, p.got, ref)
	layer := make(map[string]float64)
	c := p.metrics.Service.Cache
	addCacheLayer(layer, sim.CacheStats{
		Hits: c["hits"], Misses: c["misses"], Evals: c["evals"],
		Coalesced: c["coalesced"], Evictions: c["evictions"],
	})
	tot := p.metrics.Service.Totals
	layer["tileserve.admitted"] = float64(tot.Admitted)
	layer["tileserve.shed"] = float64(tot.Shed)
	layer["tileserve.coalesced"] = float64(tot.Coalesced)
	layer["runtime.gc_cpu_frac"] = p.after.Memstats.GCCPUFraction
	layer["runtime.alloc_bytes"] = float64(p.after.Memstats.TotalAlloc - p.before.Memstats.TotalAlloc)
	layer["runtime.allocs"] = float64(p.after.Memstats.Mallocs - p.before.Memstats.Mallocs)

	plainT, _, err := replayInProcess(nil, o, bodies, ref)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tracedT, evaluated, err := replayInProcess(tr, o, bodies, ref)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	_, queries := spanTotals(spans, "estimate.Optimum")
	probeT, probes := spanTotals(spans, "estimate.Probe")
	exactT, exacts := spanTotals(spans, "experiments.Sweep.OptimumExactCtx")
	decT, decodes := spanTotals(spans, "planapi.DecodeRequest")
	layer["estimate.queries"] = float64(queries)
	if queries > 0 {
		layer["estimate.probes_per_query"] = float64(probes) / float64(queries)
		layer["estimate.certified_frac"] = 1 - float64(exacts)/float64(queries)
	}
	layer["estimate.self_s"] = selfTime(spans, "estimate.Optimum")
	layer["estimate.probe_s"] = probeT
	layer["estimate.exact_s"] = exactT
	if decodes > 0 {
		layer["planapi.decode_us"] = 1e6 * decT / float64(decodes)
	}

	// The probes that ran the simulator, split into build and engine run
	// (the exact tier's own evaluations are not split).
	dec, err := decompose(tr, "plan", evaluated)
	if err != nil {
		return nil, err
	}
	dec.addTo(layer)
	o.spans = tr.snapshot()
	addTraceLayer(layer, plainT, tracedT, len(o.spans))
	o.layer = layer
	return o, nil
}

// replayInProcess answers the stream in one goroutine through the same
// chain the server runs — decode, sweep construction, the tiered search
// with its probes and exact fallback — against a cache with the server's
// bound. With a tracer, every call is a span and every probe that ran the
// simulator is returned for decomposition. Each answer is checked against
// the reference.
func replayInProcess(tr *tracer, o *outcome, bodies [][]byte, ref map[string]planapi.PlanResult) (float64, []gridPoint, error) {
	cache := sim.NewCacheBounded(serverCacheEntries)
	ctx := context.Background()
	var evaluated []gridPoint
	t0 := time.Now()
	for i, body := range bodies {
		op := fmt.Sprintf("req%d", i)
		root := tr.begin(op, spanRef{}, "request")
		sp := tr.begin(op, root, "planapi.DecodeRequest")
		q, err := planapi.DecodeRequest(bytes.NewReader(body))
		sp.end()
		if err != nil {
			return 0, nil, err
		}
		sp = tr.begin(op, root, "planapi.PlanRequest.Sweep")
		sw, err := q.Sweep()
		sp.end()
		if err != nil {
			return 0, nil, err
		}
		mode, err := q.SimMode()
		if err != nil {
			return 0, nil, err
		}
		sw.Cache = cache
		heights := sw.OptimumHeights()
		cfg := estimate.ForGrid(ctx, sw.Grid, sw.Machine, mode, sw.ModeCap(mode), cache, heights)
		opt := tr.begin(op, root, "estimate.Optimum")
		if tr != nil {
			probe := cfg.Probe
			cfg.Probe = func(v int64) (float64, error) {
				sp := tr.begin(op, opt, "estimate.Probe")
				before := cache.Stats().Evals
				t, err := probe(v)
				sp.end()
				if cache.Stats().Evals != before {
					evaluated = append(evaluated, gridPoint{g: sw.Grid, v: v, m: sw.Machine, mode: mode, cap: sw.ModeCap(mode)})
				}
				return t, err
			}
		}
		cfg.Exact = func() (int64, float64, error) {
			sp := tr.begin(op, opt, "experiments.Sweep.OptimumExactCtx")
			defer sp.end()
			return sw.OptimumExactCtx(ctx, mode)
		}
		out, err := estimate.Optimum(ctx, cfg)
		opt.end()
		root.end()
		if err != nil {
			return 0, nil, err
		}
		o.attempted++
		if got := resultFor(sw, mode, out); got != ref[q.Key()] {
			o.fail("in-process replay %d (%s): %+v, reference %+v", i, q.Key(), got, ref[q.Key()])
		}
	}
	return time.Since(t0).Seconds(), evaluated, nil
}
