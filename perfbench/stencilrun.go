package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/runner"
	"repro/internal/space"
	"repro/internal/stencil"
)

// The stencil-run workload executes the paper's kernel for real: nproc
// ranks in this process, meshed over loopback TCP exactly as tilenode
// deploys them. One pass is a 3-D run of each schedule and one
// checkpointed 2-D run; every gathered grid must equal the sequential
// reference exactly.

var (
	run3D = runner.Config{
		Grid:     model.Grid3D{I: 32, J: 32, K: 8192, PI: 2, PJ: 1},
		V:        16,
		Kernel:   stencil.Sqrt3D{},
		Boundary: stencil.ConstBoundary(1),
	}
	run2D = runner.Config2D{
		I1: 4096, I2: 128, S1: 64,
		Kernel:   stencil.Sum2D{},
		Boundary: stencil.ConstBoundary(1),
		Mode:     runner.Overlapped,
	}
	// ckptEvery is the 2-D run's checkpoint interval in tiles.
	ckptEvery int64 = 8
	// warm3D is the set-up run: a small 3-D grid through the fresh mesh.
	warm3D = runner.Config{
		Grid:     model.Grid3D{I: 8, J: 8, K: 256, PI: 2, PJ: 1},
		V:        16,
		Kernel:   stencil.Sqrt3D{},
		Boundary: stencil.ConstBoundary(1),
		Mode:     runner.Overlapped,
	}
)

// expectedCheckpoints is how many snapshots each rank of the 2-D run
// writes: one after every ckptEvery-th tile except the last tile.
func expectedCheckpoints() int {
	tiles := (run2D.I1 + run2D.S1 - 1) / run2D.S1
	return int((tiles - 1) / ckptEvery)
}

// commTimes accumulates the time one rank spends inside mp calls.
type commTimes struct {
	wait, send, barrier atomic.Int64 // nanoseconds
}

// timedComm is a benchmark-side mp.Comm decorator timing blocking receives
// and waits, sends, and barriers.
type timedComm struct {
	mp.Comm
	t *commTimes
}

func since(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }

func (c timedComm) Send(dst, tag int, data []byte) error {
	t0 := time.Now()
	err := c.Comm.Send(dst, tag, data)
	c.t.send.Add(since(t0))
	return err
}

func (c timedComm) Isend(dst, tag int, data []byte) (mp.Request, error) {
	t0 := time.Now()
	req, err := c.Comm.Isend(dst, tag, data)
	c.t.send.Add(since(t0))
	if err != nil {
		return nil, err
	}
	return timedReq{Request: req, t: c.t}, nil
}

func (c timedComm) Recv(src, tag int, buf []byte) (mp.Status, error) {
	t0 := time.Now()
	st, err := c.Comm.Recv(src, tag, buf)
	c.t.wait.Add(since(t0))
	return st, err
}

func (c timedComm) Irecv(src, tag int, buf []byte) (mp.Request, error) {
	req, err := c.Comm.Irecv(src, tag, buf)
	if err != nil {
		return nil, err
	}
	return timedReq{Request: req, t: c.t}, nil
}

func (c timedComm) Barrier() error {
	t0 := time.Now()
	err := c.Comm.Barrier()
	c.t.barrier.Add(since(t0))
	return err
}

type timedReq struct {
	mp.Request
	t *commTimes
}

func (r timedReq) Wait() (mp.Status, error) {
	t0 := time.Now()
	st, err := r.Request.Wait()
	r.t.wait.Add(since(t0))
	return st, err
}

// world is an n-rank TCP mesh inside this process. Traced runs go through
// each rank's instrumented endpoint (exact traffic counters under the
// timing decorator), untraced runs through the bare one.
type world struct {
	comms    []mp.Comm
	inst     []mp.Comm
	counters []*mp.CountingComm
	times    []*commTimes
}

// loopbackAddrs reserves n free loopback ports.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

func connectWorld(n int) (*world, error) {
	addrs, err := loopbackAddrs(n)
	if err != nil {
		return nil, err
	}
	w := &world{comms: make([]mp.Comm, n), inst: make([]mp.Comm, n),
		counters: make([]*mp.CountingComm, n), times: make([]*commTimes, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.comms[r], errs[r] = mp.ConnectTCP(r, n, addrs, &mp.TCPOptions{
				DialTimeout: 10 * time.Second,
				// Rank 1 dials rank 0, which may not listen yet; a 1 ms first
				// retry (10 ms by default) keeps set-up time from depending
				// on which of the two started first.
				DialBackoff: time.Millisecond,
				Deadline:    60 * time.Second, // a wedged run fails instead of hanging
			})
		}(r)
	}
	wg.Wait()
	for r := range w.comms {
		if errs[r] != nil {
			for _, c := range w.comms {
				if c != nil {
					c.Close()
				}
			}
			return nil, fmt.Errorf("rank %d connect: %w", r, errs[r])
		}
		w.counters[r] = mp.WithCounters(w.comms[r])
		w.times[r] = &commTimes{}
		w.inst[r] = timedComm{Comm: w.counters[r], t: w.times[r]}
	}
	return w, nil
}

func (w *world) close() {
	for _, c := range w.comms {
		c.Close()
	}
}

// each runs fn on every rank concurrently, on the instrumented endpoints
// when inst is set, and returns the first error.
func (w *world) each(inst bool, fn func(rank int, c mp.Comm) error) error {
	comms := w.comms
	if inst {
		comms = w.inst
	}
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c mp.Comm) {
			defer wg.Done()
			errs[r] = fn(r, c)
		}(r, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// commSnap is one rank's mp counters and times (ns) at an instant.
type commSnap struct {
	c                   mp.Snapshot
	wait, send, barrier int64
}

func (s commSnap) mpTime() time.Duration { return time.Duration(s.wait + s.send + s.barrier) }

func (w *world) snap() []commSnap {
	out := make([]commSnap, len(w.comms))
	for r := range out {
		t := w.times[r]
		out[r] = commSnap{c: w.counters[r].C.Snapshot(),
			wait: t.wait.Load(), send: t.send.Load(), barrier: t.barrier.Load()}
	}
	return out
}

// stencilRun is one timed run and what the ranks reported.
type stencilRun struct {
	name   string
	wall   float64
	stats  []runner.Stats
	before []commSnap
	after  []commSnap
	rt     goRuntime // Go runtime counter deltas over the timed section
	maxAbs float64
	// ckptBad is set when a rank of a checkpointed run wrote another
	// number of snapshots than expected.
	ckptBad bool
}

// references are the sequential results every gathered grid must match.
type references struct {
	grid3D, grid2D *stencil.Grid
	seq3D          float64 // seconds for the 3-D reference
}

func computeReferences() (*references, error) {
	sp3, err := space.Rect(run3D.Grid.I, run3D.Grid.J, run3D.Grid.K)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g3, err := stencil.RunSequential(sp3, run3D.Kernel, run3D.Boundary)
	if err != nil {
		return nil, err
	}
	seq := time.Since(t0).Seconds()
	sp2, err := space.Rect(run2D.I1, run2D.I2)
	if err != nil {
		return nil, err
	}
	g2, err := stencil.RunSequential(sp2, run2D.Kernel, run2D.Boundary)
	if err != nil {
		return nil, err
	}
	return &references{grid3D: g3, grid2D: g2, seq3D: seq}, nil
}

// run3d times one 3-D run of mode, then gathers and compares the grid
// (untimed).
func (w *world) run3d(tr *tracer, op string, mode runner.Mode, ref *stencil.Grid) (*stencilRun, error) {
	cfg := run3D
	cfg.Mode = mode
	res := &stencilRun{name: op, stats: make([]runner.Stats, len(w.comms)), before: w.snap()}
	locals := make([]*runner.Local, len(w.comms))
	root := tr.begin(op, spanRef{}, "stencil."+op)
	rt0 := readRuntime()
	t0 := time.Now()
	err := w.each(tr != nil, func(r int, c mp.Comm) error {
		sp := tr.begin(op, root, fmt.Sprintf("runner.Run[rank%d]", r))
		defer sp.end()
		l, st, err := runner.Run(c, cfg)
		locals[r], res.stats[r] = l, st
		return err
	})
	res.wall = time.Since(t0).Seconds()
	res.rt = readRuntime().minus(rt0)
	root.end()
	res.after = w.snap()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	var got *stencil.Grid
	err = w.each(false, func(r int, c mp.Comm) error {
		g, err := runner.Gather(c, cfg, locals[r])
		if r == 0 {
			got = g
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s gather: %w", op, err)
	}
	if res.maxAbs, err = stencil.MaxAbsDiff(got, ref); err != nil {
		return nil, err
	}
	return res, nil
}

// run2d times one checkpointed 2-D run in a fresh directory, then gathers
// and compares the grid and removes the snapshots (untimed).
func (w *world) run2d(tr *tracer, op, dir string, ref *stencil.Grid) (*stencilRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := run2D
	cfg.Checkpoint = runner.CheckpointConfig{Dir: dir, Every: ckptEvery}
	res := &stencilRun{name: op, stats: make([]runner.Stats, len(w.comms)), before: w.snap()}
	locals := make([]*runner.Local2D, len(w.comms))
	root := tr.begin(op, spanRef{}, "stencil."+op)
	rt0 := readRuntime()
	t0 := time.Now()
	err := w.each(tr != nil, func(r int, c mp.Comm) error {
		sp := tr.begin(op, root, fmt.Sprintf("runner.Run2D[rank%d]", r))
		defer sp.end()
		l, st, err := runner.Run2D(c, cfg)
		locals[r], res.stats[r] = l, st
		return err
	})
	res.wall = time.Since(t0).Seconds()
	res.rt = readRuntime().minus(rt0)
	root.end()
	res.after = w.snap()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	var got *stencil.Grid
	err = w.each(false, func(r int, c mp.Comm) error {
		g, err := runner.Gather2D(c, cfg, locals[r])
		if r == 0 {
			got = g
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s gather: %w", op, err)
	}
	if res.maxAbs, err = stencil.MaxAbsDiff(got, ref); err != nil {
		return nil, err
	}
	for _, st := range res.stats {
		if st.Checkpoints != expectedCheckpoints() {
			res.ckptBad = true
		}
	}
	return res, nil
}

// stencilPass runs the three runs of one pass.
func (w *world) stencilPass(tr *tracer, e *env, pass int, refs *references) ([]*stencilRun, error) {
	ov, err := w.run3d(tr, fmt.Sprintf("pass%d/run3d-overlapped", pass), runner.Overlapped, refs.grid3D)
	if err != nil {
		return nil, err
	}
	bl, err := w.run3d(tr, fmt.Sprintf("pass%d/run3d-blocking", pass), runner.Blocking, refs.grid3D)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "tmp", fmt.Sprintf("ckpt-%d-%d", os.Getpid(), pass))
	ck, err := w.run2d(tr, fmt.Sprintf("pass%d/run2d-ckpt", pass), dir, refs.grid2D)
	if err != nil {
		return nil, err
	}
	return []*stencilRun{ov, bl, ck}, nil
}

func checkRuns(o *outcome, runs []*stencilRun) {
	for _, r := range runs {
		o.attempted++
		switch {
		case r.maxAbs != 0:
			o.fail("%s: gathered grid differs from the sequential reference (max |d| = %g)", r.name, r.maxAbs)
		case r.ckptBad:
			o.fail("%s: checkpoint count differs from %d per rank", r.name, expectedCheckpoints())
		}
	}
}

// stencilSetup builds a fresh mesh and pushes a small run through it.
func stencilSetup(n int) (*world, error) {
	w, err := connectWorld(n)
	if err != nil {
		return nil, err
	}
	err = w.each(false, func(r int, c mp.Comm) error {
		_, _, err := runner.Run(c, warm3D)
		return err
	})
	if err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return w, nil
}

func runStencil(e *env, traced bool) (*outcome, error) {
	const n = 2 // the 3-D grid is split over a 2x1 processor grid
	refs, err := computeReferences()
	if err != nil {
		return nil, err
	}
	// Several set-ups; the last mesh is the one measured, the others are
	// closed once timing is over.
	var worlds []*world
	setup, err := setupSamples(setupRuns, func() error {
		w, err := stencilSetup(n)
		if err == nil {
			worlds = append(worlds, w)
		}
		return err
	})
	for _, w := range worlds[:max(len(worlds)-1, 0)] {
		w.close()
	}
	if err != nil {
		if len(worlds) > 0 {
			worlds[len(worlds)-1].close()
		}
		return nil, err
	}
	w := worlds[len(worlds)-1]
	defer w.close()

	o := &outcome{}
	if traced {
		return stencilTraced(e, o, w, refs)
	}
	var passes [][]*stencilRun
	peaks, err := measurePasses(e.seconds, func(i int) error {
		runs, err := w.stencilPass(nil, e, i, refs)
		passes = append(passes, runs)
		return err
	})
	if err != nil {
		return nil, err
	}

	// As on figures, the operation is a whole pass: its three runs differ
	// in length, so percentiles over single runs would mix three kinds.
	var passT []float64
	perRun := make(map[string][]float64)
	for _, runs := range passes {
		checkRuns(o, runs)
		t := 0.0
		for i, r := range runs {
			t += r.wall
			perRun[runNames[i]] = append(perRun[runNames[i]], r.wall)
		}
		passT = append(passT, t)
	}
	ls := summarize(passT)
	o.e2e = map[string]float64{
		"setup_s":     median(setup),
		"peak_rss_mb": median(peaks),
		"pass_s":      median(passT),
		"op_p50_ms":   1e3 * ls.P50,
		"op_p99_ms":   1e3 * ls.P99,
	}
	note := fmt.Sprintf("(median of %d passes, %d ranks)", len(passes), n)
	for _, name := range runNames {
		o.named = append(o.named, namedMetric{name + "_s", median(perRun[name]), "s", note})
	}
	return o, nil
}

var runNames = []string{"run3d_overlapped", "run3d_blocking", "run2d_ckpt"}

// stencilTraced is the traced run: one untraced pass for the runtime
// counters and the overhead baseline, then one traced pass whose mp and
// runner accounting gives the layer split.
func stencilTraced(e *env, o *outcome, w *world, refs *references) (*outcome, error) {
	debug.FreeOSMemory()
	plain, err := w.stencilPass(nil, e, 0, refs)
	if err != nil {
		return nil, err
	}
	checkRuns(o, plain)
	debug.FreeOSMemory()
	tr := newTracer()
	runs, err := w.stencilPass(tr, e, 1, refs)
	if err != nil {
		return nil, err
	}
	checkRuns(o, runs)

	// Runtime counters over the untraced pass's runs, verification excluded.
	var rt goRuntime
	for _, r := range plain {
		rt = rt.plus(r.rt)
	}
	layer := runtimeLayer(rt)
	var msgs, bytes, wait, send, barrier, elapsed, self, tiles, ckpts, ckptBytes float64
	for _, r := range runs {
		slow := 0
		for rank, st := range r.stats {
			a, b := r.after[rank], r.before[rank]
			msgs += float64(a.c.SendMsgs - b.c.SendMsgs)
			bytes += float64(a.c.SendBytes - b.c.SendBytes)
			wait += float64(a.wait-b.wait) / 1e9
			send += float64(a.send-b.send) / 1e9
			barrier += float64(a.barrier-b.barrier) / 1e9
			tiles += float64(st.Tiles)
			ckpts += float64(st.Checkpoints)
			ckptBytes += float64(st.CheckpointBytes)
			if st.Elapsed > r.stats[slow].Elapsed {
				slow = rank
			}
		}
		el := r.stats[slow].Elapsed
		elapsed += el.Seconds()
		self += max(0, (el - (r.after[slow].mpTime() - r.before[slow].mpTime())).Seconds())
	}
	layer["mp.msgs"] = msgs
	layer["mp.bytes"] = bytes
	layer["mp.wait_s"] = wait
	layer["mp.send_s"] = send
	layer["mp.barrier_s"] = barrier
	layer["runner.rank_elapsed_s"] = elapsed
	layer["runner.self_s"] = self
	layer["runner.tiles"] = tiles
	layer["runner.ckpt_count"] = ckpts
	layer["runner.ckpt_bytes"] = ckptBytes
	layer["stencil.seq_s"] = refs.seq3D
	g := run3D.Grid
	layer["stencil.ns_per_point"] = 1e9 * refs.seq3D / float64(g.I*g.J*g.K)

	o.spans = tr.snapshot()
	passWall := func(rs []*stencilRun) float64 {
		t := 0.0
		for _, r := range rs {
			t += r.wall
		}
		return t
	}
	addTraceLayer(layer, passWall(plain), passWall(runs), len(o.spans))
	o.layer = layer
	return o, nil
}
