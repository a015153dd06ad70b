package runner

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/ilmath"
	"repro/internal/mp"
	"repro/internal/space"
	"repro/internal/stencil"
)

// Mode selects the execution scheme.
type Mode int

const (
	// Blocking implements ProcB: per tile, blocking receives, compute,
	// blocking sends.
	Blocking Mode = iota
	// Overlapped implements ProcNB: per tile, non-blocking sends of the
	// previous tile's faces and non-blocking receives of the next tile's
	// ghosts around the compute.
	Overlapped
)

func (m Mode) String() string {
	if m == Blocking {
		return "blocking"
	}
	return "overlapped"
}

// Stats reports what one rank did.
type Stats struct {
	Elapsed   time.Duration
	Tiles     int
	MsgsSent  int
	MsgsRecvd int
	BytesSent int64
	// Checkpoints counts snapshots written; CheckpointBytes their total
	// on-disk size.
	Checkpoints     int
	CheckpointBytes int64
	// Restore reports how a restore-enabled run started.
	Restore RestoreInfo
}

// Local is one rank's block after a run: its share of every
// processor-mapped dimension with a ghost layer at −1 in each, outermost
// first, and the whole tiled dimension innermost and contiguous.
type Local struct {
	Rank int
	Data []float64
	sp   []span
}

// Local2D is the 2-D strip's block; both grids share one layout.
type Local2D = Local

// shape is either run configuration.
type shape interface{ Config | Config2D }

// layoutOf builds cfg's grid for commSize ranks and checks it: each
// configuration checks only its own shape rules, and everything after
// this point is shared.
func layoutOf[C shape](cfg C, commSize int) (grid, error) {
	switch c := any(cfg).(type) {
	case Config:
		return c.layout(), c.Validate(commSize)
	case Config2D:
		return c.layout(commSize), c.Validate(commSize)
	}
	panic("runner: unknown configuration type")
}

// grid is the executor's whole view of a run. Each processor-mapped
// ("outer") axis is split over its processors in balanced strips and
// carries a ghost layer at −1; the tiled axis is innermost, and every rank
// walks its tiles along it, receiving from its lower neighbour on each
// outer axis and sending to the upper one.
type grid struct {
	outer  []axis // processor-mapped axes, outermost first; ranks are row-major over them
	tiled  int    // space dimension of the tiled axis
	n      int64  // its extent
	tile   int64  // tile size along it
	corner int64  // rows below each tile that every face also carries
	kernel stencil.Kernel
	bound  stencil.Boundary
	mode   Mode
	ckpt   CheckpointConfig
}

// axis is one processor-mapped dimension.
type axis struct {
	dim      int   // space dimension
	n, procs int64 // extent and processors along it
}

// span is one rank's share of an outer axis.
type span struct {
	base, width  int64
	lower, upper int   // neighbour ranks, −1 at the grid's edge
	stride       int64 // Data distance between adjacent indices
}

// validate checks the rules both grids share; allowed lists the shape's
// supported dependences.
func (g grid) validate(allowed ...ilmath.Vec) error {
	if g.tile <= 0 || g.tile > g.n {
		return fmt.Errorf("runner: tile size %d out of range (0, %d]", g.tile, g.n)
	}
	if g.kernel == nil {
		return fmt.Errorf("runner: nil kernel")
	}
	if dim := len(g.outer) + 1; g.kernel.Deps().Dim() != dim {
		return fmt.Errorf("runner: kernel %s is not %d-D", g.kernel.Name(), dim)
	}
	for _, d := range g.kernel.Deps().Vectors() {
		ok := false
		for _, a := range allowed {
			ok = ok || d.Equal(a)
		}
		if !ok {
			return fmt.Errorf("runner: unsupported dependence %v (want one of %v)", d, allowed)
		}
	}
	if g.mode != Blocking && g.mode != Overlapped {
		return fmt.Errorf("runner: unknown mode %d", int(g.mode))
	}
	return g.ckpt.validate()
}

// extents returns the global extents in space-dimension order.
func (g grid) extents() []int64 {
	ext := make([]int64, len(g.outer)+1)
	ext[g.tiled] = g.n
	for _, a := range g.outer {
		ext[a.dim] = a.n
	}
	return ext
}

// strides returns the row-major strides of stencil.Grid over the space.
func (g grid) strides() []int64 {
	ext := g.extents()
	st := make([]int64, len(ext))
	for x, s := len(ext)-1, int64(1); x >= 0; x-- {
		st[x], s = s, s*ext[x]
	}
	return st
}

func (g grid) tiles() int64 { return (g.n + g.tile - 1) / g.tile }

// tileRange returns [t0, t0+v) for tile t.
func (g grid) tileRange(t int64) (t0, v int64) {
	t0 = t * g.tile
	return t0, min(g.tile, g.n-t0)
}

// spans returns rank's share of every outer axis and the length of its
// Data. The balanced split gives the first n mod procs strips one extra
// index, so every rank owns at least one index whenever procs ≤ n.
func (g grid) spans(rank int) ([]span, int64) {
	sp := make([]span, len(g.outer))
	step, stride := 1, g.n
	for d := len(g.outer) - 1; d >= 0; d-- {
		a := g.outer[d]
		c := int64(rank/step) % a.procs
		q, r := a.n/a.procs, a.n%a.procs
		s := span{base: c*q + min(c, r), width: q, lower: -1, upper: -1, stride: stride}
		if c < r {
			s.width++
		}
		if c > 0 {
			s.lower = rank - step
		}
		if c < a.procs-1 {
			s.upper = rank + step
		}
		sp[d] = s
		stride *= s.width + 1
		step *= int(a.procs)
	}
	return sp, stride
}

// Run executes the configured schedule on communicator c and returns this
// rank's block and statistics. All ranks must call Run with identical
// configurations. On a mid-run failure the partial statistics travel with
// the error: a supervisor accounting wasted work wants to know how far
// this attempt got.
func Run[C shape](c mp.Comm, cfg C) (*Local, Stats, error) {
	g, err := layoutOf(cfg, c.Size())
	if err != nil {
		return nil, Stats{}, err
	}
	if g.bound == nil {
		g.bound = stencil.ConstBoundary(1)
	}
	rank := c.Rank()
	sp, size := g.spans(rank)
	l := &Local{Rank: rank, Data: make([]float64, size), sp: sp}
	r := &run{grid: g, c: c, l: l, ev: newEvalScratch(g, sp)}
	if g.ckpt.Dir != "" {
		removeOrphanTemps(g.ckpt.Dir, rank)
	}
	// Agree on a restart tile before any compute: the AllReduce inside
	// restore doubles as the first synchronization point.
	var startTile int64
	if g.ckpt.Restore {
		info, err := restore(c, g, l)
		if err != nil {
			abortComm(c, err)
			return nil, Stats{}, fmt.Errorf("runner: rank %d restore: %w", rank, err)
		}
		r.stats.Restore = info
		startTile = info.StartTile
	}
	if err := c.Barrier(); err != nil {
		return nil, Stats{}, err
	}
	//tilevet:allow determinism -- Stats.Elapsed is the paper's measured wall-clock output; it never feeds the computed grid
	start := time.Now()
	if g.mode == Blocking {
		err = r.runBlocking(startTile)
	} else {
		err = r.runOverlapped(startTile)
	}
	if err != nil {
		abortComm(c, err)
		return nil, r.stats, fmt.Errorf("runner: rank %d: %w", rank, err)
	}
	if err := c.Barrier(); err != nil {
		return nil, r.stats, err
	}
	r.stats.Elapsed = time.Since(start) //tilevet:allow determinism -- wall-clock measurement, reporting only
	return l, r.stats, nil
}

// maxOuter bounds the processor-mapped axes of a grid (the 3-D grid has
// two), so the per-run scratch below needs no allocation.
const maxOuter = 2

// ghost is a posted receive for one face.
type ghost struct {
	req mp.Request
	buf []byte
}

// run carries the per-rank execution state.
type run struct {
	grid
	c     mp.Comm
	l     *Local
	ev    evalScratch
	cur   cursor
	stats Stats
	// posted receives by tile parity, one slot per outer axis, and the
	// non-blocking sends in flight.
	posted [2][maxOuter]ghost
	sends  []mp.Request
}

// tag is the message tag of tile t's face across outer axis d.
func (r *run) tag(t int64, d int) int { return int(t)*len(r.outer) + d }

// faceLen is the number of values in tile t's face across outer axis d:
// the rank's width on every other outer axis times the tile's rows plus
// the corner rows below it.
func (r *run) faceLen(t int64, d int) int64 {
	_, v := r.tileRange(t)
	n := v + r.corner
	for x, s := range r.l.sp {
		if x != d {
			n *= s.width
		}
	}
	return n
}

// cursor walks the outer index vectors idx of a box lo ≤ idx < hi in
// Data order, tracking the Data offset p of each vector's tiled index 0.
type cursor struct {
	idx, lo, hi [maxOuter]int64
	p           int64
}

// box starts the walk over the rank's owned indices, except that outer
// axis fix (if ≥ 0) is pinned to index at.
func (cu *cursor) box(sp []span, fix int, at int64) {
	cu.p = 0
	for d, s := range sp {
		cu.lo[d], cu.hi[d] = 0, s.width
		if d == fix {
			cu.lo[d], cu.hi[d] = at, at+1
		}
		cu.idx[d] = cu.lo[d]
		cu.p += (cu.lo[d] + 1) * s.stride
	}
}

// next advances to the following vector; false once the box is done.
func (cu *cursor) next(sp []span) bool {
	for d := len(sp) - 1; d >= 0; d-- {
		cu.idx[d]++
		cu.p += sp[d].stride
		if cu.idx[d] < cu.hi[d] {
			return true
		}
		cu.p -= (cu.idx[d] - cu.lo[d]) * sp[d].stride
		cu.idx[d] = cu.lo[d]
	}
	return false
}

// pack packs this rank's upper face across outer axis d for tile t: its
// last index on d over the tile's rows and the corner rows below them.
// A corner row below the space holds the boundary value.
func (r *run) pack(t int64, d int) []byte {
	t0, v := r.tileRange(t)
	buf := make([]byte, 8*r.faceLen(t, d))
	sp, cu, q := r.l.sp, &r.cur, r.ev.q
	o := 0
	for cu.box(sp, d, sp[d].width-1); ; {
		for k := t0 - r.corner; k < t0+v; k++ {
			x := 0.0
			if k >= 0 {
				x = r.l.Data[cu.p+k]
			} else {
				for a, s := range sp {
					q[r.outer[a].dim] = s.base + cu.idx[a]
				}
				q[r.tiled] = k
				x = r.bound(q)
			}
			putF64(buf[o:], x)
			o += 8
		}
		if !cu.next(sp) {
			return buf
		}
	}
}

// unpack stores a face received across outer axis d for tile t into the
// ghost layer at −1, dropping corner rows below the space.
func (r *run) unpack(t int64, d int, buf []byte) {
	r.stats.MsgsRecvd++
	t0, v := r.tileRange(t)
	sp, cu := r.l.sp, &r.cur
	o := 0
	for cu.box(sp, d, -1); ; {
		for k := t0 - r.corner; k < t0+v; k++ {
			if k >= 0 {
				r.l.Data[cu.p+k] = getF64(buf[o:])
			}
			o += 8
		}
		if !cu.next(sp) {
			return
		}
	}
}

// computeTile evaluates the kernel over tile t as a dense loop over
// l.Data: outer indices in Data order, the tiled index innermost and
// contiguous, each predecessor read at its precomputed flat offset. Only
// the points whose predecessors can leave the space — the first row of
// the tiled axis, and index 0 on an outer axis without a lower neighbour —
// take the boundary-checked path.
func (r *run) computeTile(t int64) {
	t0, v := r.tileRange(t)
	l, ev, sp, cu := r.l, &r.ev, r.l.sp, &r.cur
	data, off, pred, j := l.Data, ev.off, ev.pred[:len(ev.off)], ev.j
	kern, b, tiled, outer := r.kernel, r.bound, r.tiled, r.outer
	for cu.box(sp, -1, 0); ; {
		edge := false
		for d, s := range sp {
			j[outer[d].dim] = s.base + cu.idx[d]
			edge = edge || (s.lower < 0 && cu.idx[d] == 0)
		}
		p := cu.p + t0
		k, edgeEnd := t0, t0
		var out uint64 // bit i: dependence i leaves the space across an outer axis
		if edge {
			edgeEnd = t0 + v
			for i, dep := range ev.deps {
				for d, s := range sp {
					if s.lower < 0 && cu.idx[d] < dep[outer[d].dim] {
						out |= 1 << i
					}
				}
			}
		} else if t0 == 0 {
			edgeEnd = 1
		}
		for ; k < edgeEnd; k, p = k+1, p+1 {
			j[tiled] = k
			for i, dep := range ev.deps {
				if k < dep[tiled] || out&(1<<i) != 0 {
					pred[i] = ev.boundary(i, b)
				} else {
					pred[i] = data[p-off[i]]
				}
			}
			data[p] = kern.Eval(j, pred)
		}
		for ; k < t0+v; k, p = k+1, p+1 {
			j[tiled] = k
			for i, o := range off {
				pred[i] = data[p-o]
			}
			data[p] = kern.Eval(j, pred)
		}
		if !cu.next(sp) {
			break
		}
	}
	r.stats.Tiles++
}

// evalScratch is the per-run state of the allocation-free tile loop: the
// kernel's dependences, one flat Data offset per dependence, and the point,
// predecessor and boundary-query buffers.
type evalScratch struct {
	deps []ilmath.Vec
	off  []int64
	pred []float64
	j, q ilmath.Vec
}

// newEvalScratch prepares the scratch for g's kernel on a rank with outer
// spans sp.
func newEvalScratch(g grid, sp []span) evalScratch {
	ds := g.kernel.Deps().Vectors()
	ev := evalScratch{
		deps: ds,
		off:  make([]int64, len(ds)),
		pred: make([]float64, len(ds)),
		j:    ilmath.NewVec(len(sp) + 1),
		q:    ilmath.NewVec(len(sp) + 1),
	}
	for i, d := range ds {
		ev.off[i] = d[g.tiled] // distance to the predecessor in Data
		for x, s := range sp {
			ev.off[i] += d[g.outer[x].dim] * s.stride
		}
	}
	return ev
}

// boundary returns b at predecessor j − deps[i] of the current point j.
func (ev *evalScratch) boundary(i int, b stencil.Boundary) float64 {
	d := ev.deps[i]
	for x := range ev.q {
		ev.q[x] = ev.j[x] - d[x]
	}
	return b(ev.q)
}

// sendFaces ships tile t's upper faces, blocking or not, appending the
// requests of non-blocking sends to r.sends.
func (r *run) sendFaces(t int64, blocking bool) error {
	for d, s := range r.l.sp {
		if s.upper < 0 {
			continue
		}
		buf := r.pack(t, d)
		if blocking {
			if err := r.c.Send(s.upper, r.tag(t, d), buf); err != nil {
				return err
			}
		} else {
			req, err := r.c.Isend(s.upper, r.tag(t, d), buf)
			if err != nil {
				return err
			}
			r.sends = append(r.sends, req)
		}
		r.stats.MsgsSent++
		r.stats.BytesSent += int64(len(buf))
	}
	return nil
}

// runBlocking is ProcB: for each tile, blocking receives, compute, blocking
// sends.
func (r *run) runBlocking(start int64) error {
	for t := start; t < r.tiles(); t++ {
		for d, s := range r.l.sp {
			if s.lower >= 0 {
				buf := make([]byte, 8*r.faceLen(t, d))
				if _, err := r.c.Recv(s.lower, r.tag(t, d), buf); err != nil {
					return err
				}
				r.unpack(t, d, buf)
			}
		}
		r.computeTile(t)
		if err := r.sendFaces(t, true); err != nil {
			return err
		}
		if err := r.maybeCheckpoint(t); err != nil {
			return err
		}
	}
	return nil
}

// post posts tile t's ghost receives into the slots of t's parity.
func (r *run) post(t int64) error {
	gs := &r.posted[t&1]
	for d, s := range r.l.sp {
		gs[d] = ghost{}
		if s.lower < 0 {
			continue
		}
		buf := make([]byte, 8*r.faceLen(t, d))
		req, err := r.c.Irecv(s.lower, r.tag(t, d), buf)
		if err != nil {
			return err
		}
		gs[d] = ghost{req: req, buf: buf}
	}
	return nil
}

// runOverlapped is ProcNB: at tile t the rank sends the faces produced by
// tile t−1, has receives posted ahead for tile t+1, and computes tile t in
// between, exactly as the paper's non-blocking pseudocode. On a restored
// run tile start−1's faces were consumed before the neighbours'
// checkpoints, so the first send is tile start's, one iteration in.
func (r *run) runOverlapped(start int64) error {
	n := r.tiles()
	if err := r.post(start); err != nil {
		return err
	}
	for t := start; t < n; t++ {
		r.sends = r.sends[:0]
		if t > start {
			if err := r.sendFaces(t-1, false); err != nil {
				return err
			}
		}
		if t+1 < n {
			if err := r.post(t + 1); err != nil {
				return err
			}
		}
		for d, g := range r.posted[t&1][:len(r.l.sp)] {
			if g.req == nil {
				continue
			}
			if _, err := g.req.Wait(); err != nil {
				return err
			}
			r.unpack(t, d, g.buf)
		}
		r.computeTile(t)
		if err := mp.WaitAll(r.sends...); err != nil {
			return err
		}
		if err := r.maybeCheckpoint(t); err != nil {
			return err
		}
	}
	r.sends = r.sends[:0]
	if err := r.sendFaces(n-1, false); err != nil {
		return err
	}
	return mp.WaitAll(r.sends...)
}

// Gather assembles the full grid on rank 0 via the mp gather collective
// (other ranks return nil). Rank 0 derives every block's geometry from the
// configuration, so blocks carry data only.
func Gather[C shape](c mp.Comm, cfg C, l *Local) (*stencil.Grid, error) {
	g, err := layoutOf(cfg, c.Size())
	if err != nil {
		return nil, err
	}
	block := make([]byte, 0, blockLen(l.sp, g.n))
	g.eachRow(l.sp, func(p, _ int64) {
		for _, v := range l.Data[p:][:g.n] {
			block = binary.BigEndian.AppendUint64(block, math.Float64bits(v))
		}
	})
	// Equal blocks (always so on the 3-D grid) need no length prefix.
	uniform := true
	for rank := 0; rank < c.Size(); rank++ {
		sp, _ := g.spans(rank)
		uniform = uniform && blockLen(sp, g.n) == len(block)
	}
	var blocks [][]byte
	if uniform {
		blocks, err = mp.GatherBytesSized(c, 0, block, len(block))
	} else {
		blocks, err = mp.GatherBytes(c, 0, block)
	}
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	sp, err := space.Rect(g.extents()...)
	if err != nil {
		return nil, err
	}
	out := stencil.NewGrid(sp)
	step := g.strides()[g.tiled]
	for rank, buf := range blocks {
		rs, _ := g.spans(rank)
		g.eachRow(rs, func(_, at int64) {
			for k := int64(0); k < g.n; k++ {
				out.Data[at+k*step] = getF64(buf)
				buf = buf[8:]
			}
		})
	}
	return out, nil
}

// blockLen is the byte length of a rank's owned values.
func blockLen(sp []span, n int64) int {
	for _, s := range sp {
		n *= s.width
	}
	return int(8 * n)
}

// eachRow calls fn for every owned row of a rank's block in Data order,
// with the row's Data offset and the global grid offset of its first
// point.
func (g grid) eachRow(sp []span, fn func(p, at int64)) {
	gstride := g.strides()
	var cu cursor
	for cu.box(sp, -1, 0); ; {
		at := int64(0)
		for d, s := range sp {
			at += (s.base + cu.idx[d]) * gstride[g.outer[d].dim]
		}
		fn(cu.p, at)
		if !cu.next(sp) {
			return
		}
	}
}

// VerifySequential runs the kernel sequentially over the configuration's
// whole space and returns the maximum absolute difference against the
// gathered grid.
func VerifySequential[C shape](got *stencil.Grid, cfg C) (float64, error) {
	g, _ := layoutOf(cfg, 1) // only the extents, kernel and boundary matter here
	sp, err := space.Rect(g.extents()...)
	if err != nil {
		return 0, err
	}
	ref, err := stencil.RunSequential(sp, g.kernel, g.bound)
	if err != nil {
		return 0, err
	}
	return stencil.MaxAbsDiff(got, ref)
}

func putF64(b []byte, v float64) { binary.BigEndian.PutUint64(b, math.Float64bits(v)) }

func getF64(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }
