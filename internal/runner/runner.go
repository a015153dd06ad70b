package runner

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ilmath"
	"repro/internal/model"
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

// Config describes one run.
type Config struct {
	Grid     model.Grid3D
	V        int64 // tile height along k
	Kernel   stencil.Kernel
	Boundary stencil.Boundary
	Mode     Mode
}

// Stats reports what one rank did.
type Stats struct {
	Elapsed   time.Duration
	Tiles     int
	MsgsSent  int
	MsgsRecvd int
	BytesSent int64
	// Checkpoints counts snapshots written; CheckpointBytes their total
	// on-disk size (2-D executor only).
	Checkpoints     int
	CheckpointBytes int64
	// Restore reports how a restore-enabled run started (2-D executor only).
	Restore RestoreInfo
}

// Local is one rank's subdomain after a run.
type Local struct {
	Rank         int
	PIdx, PJdx   int64 // processor grid coordinates
	BaseI, BaseJ int64 // global origin of the subdomain
	TI, TJ, K    int64
	Data         []float64 // (TI+1)×(TJ+1)×K including ghost layers at −1
}

func (l *Local) idx(li, lj, k int64) int64 {
	return ((li+1)*(l.TJ+1)+(lj+1))*l.K + k
}

// At returns the local value at subdomain-relative coordinates
// (li ∈ [−1, TI), lj ∈ [−1, TJ), k ∈ [0, K)).
func (l *Local) At(li, lj, k int64) float64 { return l.Data[l.idx(li, lj, k)] }

func (l *Local) set(li, lj, k int64, v float64) { l.Data[l.idx(li, lj, k)] = v }

// Validate checks a Config against a communicator size.
func (cfg Config) Validate(commSize int) error {
	if err := cfg.Grid.Validate(); err != nil {
		return err
	}
	if cfg.V <= 0 || cfg.V > cfg.Grid.K {
		return fmt.Errorf("runner: tile height %d out of range (0, %d]", cfg.V, cfg.Grid.K)
	}
	if cfg.Kernel == nil {
		return fmt.Errorf("runner: nil kernel")
	}
	if cfg.Kernel.Deps().Dim() != 3 {
		return fmt.Errorf("runner: kernel %s is not 3-D", cfg.Kernel.Name())
	}
	// Only nearest-neighbor unit dependences are supported: the runner's
	// ghost exchange carries exactly the i-, j- and k-faces.
	for _, d := range cfg.Kernel.Deps().Vectors() {
		if !d.Equal(ilmath.V(1, 0, 0)) && !d.Equal(ilmath.V(0, 1, 0)) && !d.Equal(ilmath.V(0, 0, 1)) {
			return fmt.Errorf("runner: unsupported dependence %v (unit vectors only)", d)
		}
	}
	if int64(commSize) != cfg.Grid.PI*cfg.Grid.PJ {
		return fmt.Errorf("runner: communicator has %d ranks, grid wants %d×%d = %d",
			commSize, cfg.Grid.PI, cfg.Grid.PJ, cfg.Grid.PI*cfg.Grid.PJ)
	}
	if cfg.Mode != Blocking && cfg.Mode != Overlapped {
		return fmt.Errorf("runner: unknown mode %d", int(cfg.Mode))
	}
	return nil
}

// message tags: two directions per k-tile index (tile tags are 2t+dir; the
// final gather uses the mp collective's reserved tag space).
const (
	dirWest  = 0 // ghosts arriving from (pi−1, pj)
	dirNorth = 1 // ghosts arriving from (pi, pj−1)
)

func tileTag(t int64, dir int) int { return int(2*t) + dir }

// Run executes the configured schedule on communicator c and returns this
// rank's subdomain and statistics. All ranks must call Run with identical
// configurations.
func Run(c mp.Comm, cfg Config) (*Local, Stats, error) {
	if err := cfg.Validate(c.Size()); err != nil {
		return nil, Stats{}, err
	}
	if cfg.Boundary == nil {
		cfg.Boundary = stencil.ConstBoundary(1)
	}
	g := cfg.Grid
	rank := c.Rank()
	l := &Local{
		Rank: rank,
		PIdx: int64(rank) / g.PJ,
		PJdx: int64(rank) % g.PJ,
		TI:   g.TileI(),
		TJ:   g.TileJ(),
		K:    g.K,
	}
	l.BaseI = l.PIdx * l.TI
	l.BaseJ = l.PJdx * l.TJ
	l.Data = make([]float64, (l.TI+1)*(l.TJ+1)*l.K)

	r := &run{cfg: cfg, c: c, l: l}
	r.ev = newEvalScratch(cfg.Kernel, func(d ilmath.Vec) int64 {
		return (d[0]*(l.TJ+1)+d[1])*l.K + d[2]
	})
	if err := c.Barrier(); err != nil {
		return nil, Stats{}, err
	}
	//tilevet:allow determinism -- Stats.Elapsed is the paper's measured wall-clock output; it never feeds the computed grid
	start := time.Now()
	var err error
	switch cfg.Mode {
	case Blocking:
		err = r.runBlocking()
	case Overlapped:
		err = r.runOverlapped()
	}
	if err != nil {
		abortComm(c, err)
		return nil, Stats{}, fmt.Errorf("runner: rank %d: %w", rank, err)
	}
	if err := c.Barrier(); err != nil {
		return nil, Stats{}, err
	}
	r.stats.Elapsed = time.Since(start) //tilevet:allow determinism -- wall-clock measurement, reporting only
	return l, r.stats, nil
}

// run carries the per-rank execution state.
type run struct {
	cfg   Config
	c     mp.Comm
	l     *Local
	ev    evalScratch
	stats Stats
}

func (r *run) westRank() int  { return int((r.l.PIdx-1)*r.cfg.Grid.PJ + r.l.PJdx) }
func (r *run) eastRank() int  { return int((r.l.PIdx+1)*r.cfg.Grid.PJ + r.l.PJdx) }
func (r *run) northRank() int { return int(r.l.PIdx*r.cfg.Grid.PJ + r.l.PJdx - 1) }
func (r *run) southRank() int { return int(r.l.PIdx*r.cfg.Grid.PJ + r.l.PJdx + 1) }

func (r *run) hasWest() bool  { return r.l.PIdx > 0 }
func (r *run) hasEast() bool  { return r.l.PIdx < r.cfg.Grid.PI-1 }
func (r *run) hasNorth() bool { return r.l.PJdx > 0 }
func (r *run) hasSouth() bool { return r.l.PJdx < r.cfg.Grid.PJ-1 }

// tileRange returns [k0, k0+v) for k-tile t.
func (r *run) tileRange(t int64) (k0, v int64) {
	k0 = t * r.cfg.V
	v = r.cfg.V
	if k0+v > r.cfg.Grid.K {
		v = r.cfg.Grid.K - k0
	}
	return k0, v
}

func (r *run) numTiles() int64 { return r.cfg.Grid.KTiles(r.cfg.V) }

// packEastFace packs this rank's own east-most i-plane (li = TI−1) of the
// given k range; it is the ghost plane the east neighbor needs.
func (r *run) packEastFace(k0, v int64) []byte {
	buf := make([]byte, 8*r.l.TJ*v)
	o := 0
	for lj := int64(0); lj < r.l.TJ; lj++ {
		for k := k0; k < k0+v; k++ {
			putF64(buf[o:], r.l.At(r.l.TI-1, lj, k))
			o += 8
		}
	}
	return buf
}

func (r *run) packSouthFace(k0, v int64) []byte {
	buf := make([]byte, 8*r.l.TI*v)
	o := 0
	for li := int64(0); li < r.l.TI; li++ {
		for k := k0; k < k0+v; k++ {
			putF64(buf[o:], r.l.At(li, r.l.TJ-1, k))
			o += 8
		}
	}
	return buf
}

// unpackWestGhost stores a received west ghost plane into the li = −1 layer.
func (r *run) unpackWestGhost(buf []byte, k0, v int64) {
	o := 0
	for lj := int64(0); lj < r.l.TJ; lj++ {
		for k := k0; k < k0+v; k++ {
			r.l.set(-1, lj, k, getF64(buf[o:]))
			o += 8
		}
	}
}

func (r *run) unpackNorthGhost(buf []byte, k0, v int64) {
	o := 0
	for li := int64(0); li < r.l.TI; li++ {
		for k := k0; k < k0+v; k++ {
			r.l.set(li, -1, k, getF64(buf[o:]))
			o += 8
		}
	}
}

// computeTile evaluates the kernel over the local tile [k0, k0+v) as a
// dense loop over l.Data: li and lj outer, k innermost and contiguous, each
// predecessor read at its precomputed flat offset. Only the points whose
// predecessors can leave the space — k = 0, and the li = 0 / lj = 0 rows of
// a rank without a west / north neighbor — take the boundary-checked path.
func (r *run) computeTile(k0, v int64) {
	l, ev := r.l, &r.ev
	data, off, pred, j := l.Data, ev.off, ev.pred[:len(ev.off)], ev.j
	kern, b := r.cfg.Kernel, r.cfg.Boundary
	for li := int64(0); li < l.TI; li++ {
		j[0] = l.BaseI + li
		for lj := int64(0); lj < l.TJ; lj++ {
			j[1] = l.BaseJ + lj
			p := l.idx(li, lj, k0)
			k, edgeEnd := k0, k0
			if (li == 0 && !r.hasWest()) || (lj == 0 && !r.hasNorth()) {
				edgeEnd = k0 + v
			} else if k0 == 0 {
				edgeEnd = 1
			}
			for ; k < edgeEnd; k, p = k+1, p+1 {
				j[2] = k
				for i, d := range ev.deps {
					if k < d[2] || (li < d[0] && !r.hasWest()) || (lj < d[1] && !r.hasNorth()) {
						pred[i] = ev.boundary(i, b)
					} else {
						pred[i] = data[p-off[i]]
					}
				}
				data[p] = kern.Eval(j, pred)
			}
			for ; k < k0+v; k, p = k+1, p+1 {
				j[2] = k
				for i, o := range off {
					pred[i] = data[p-o]
				}
				data[p] = kern.Eval(j, pred)
			}
		}
	}
	r.stats.Tiles++
}

// evalScratch is the per-run state of the allocation-free tile loops: the
// kernel's dependences, one flat Data offset per dependence, and the point,
// predecessor and boundary-query buffers handed to Kernel.Eval and Boundary.
type evalScratch struct {
	deps []ilmath.Vec
	off  []int64
	pred []float64
	j, q ilmath.Vec
}

// newEvalScratch prepares the scratch for kernel k; offset maps a
// dependence to the distance between a point and that predecessor in the
// executor's flat local array.
func newEvalScratch(k stencil.Kernel, offset func(d ilmath.Vec) int64) evalScratch {
	ds := k.Deps().Vectors()
	ev := evalScratch{
		deps: ds,
		off:  make([]int64, len(ds)),
		pred: make([]float64, len(ds)),
		j:    ilmath.NewVec(k.Deps().Dim()),
		q:    ilmath.NewVec(k.Deps().Dim()),
	}
	for i, d := range ds {
		ev.off[i] = offset(d)
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

// runBlocking is ProcB: for each tile, blocking receives, compute, blocking
// sends.
func (r *run) runBlocking() error {
	for t := int64(0); t < r.numTiles(); t++ {
		k0, v := r.tileRange(t)
		if r.hasWest() {
			buf := make([]byte, 8*r.l.TJ*v)
			if _, err := r.c.Recv(r.westRank(), tileTag(t, dirWest), buf); err != nil {
				return err
			}
			r.unpackWestGhost(buf, k0, v)
			r.stats.MsgsRecvd++
		}
		if r.hasNorth() {
			buf := make([]byte, 8*r.l.TI*v)
			if _, err := r.c.Recv(r.northRank(), tileTag(t, dirNorth), buf); err != nil {
				return err
			}
			r.unpackNorthGhost(buf, k0, v)
			r.stats.MsgsRecvd++
		}
		r.computeTile(k0, v)
		if r.hasEast() {
			buf := r.packEastFace(k0, v)
			if err := r.c.Send(r.eastRank(), tileTag(t, dirWest), buf); err != nil {
				return err
			}
			r.stats.MsgsSent++
			r.stats.BytesSent += int64(len(buf))
		}
		if r.hasSouth() {
			buf := r.packSouthFace(k0, v)
			if err := r.c.Send(r.southRank(), tileTag(t, dirNorth), buf); err != nil {
				return err
			}
			r.stats.MsgsSent++
			r.stats.BytesSent += int64(len(buf))
		}
	}
	return nil
}

// runOverlapped is ProcNB: at tile t the rank sends the faces produced by
// tile t−1, has receives posted ahead for tile t+1, and computes tile t in
// between, exactly as the paper's non-blocking pseudocode.
func (r *run) runOverlapped() error {
	type ghostRecv struct {
		req mp.Request
		buf []byte
	}
	post := func(t int64) (west, north *ghostRecv, err error) {
		_, v := r.tileRange(t)
		if r.hasWest() {
			g := &ghostRecv{buf: make([]byte, 8*r.l.TJ*v)}
			g.req, err = r.c.Irecv(r.westRank(), tileTag(t, dirWest), g.buf)
			if err != nil {
				return nil, nil, err
			}
			west = g
		}
		if r.hasNorth() {
			g := &ghostRecv{buf: make([]byte, 8*r.l.TI*v)}
			g.req, err = r.c.Irecv(r.northRank(), tileTag(t, dirNorth), g.buf)
			if err != nil {
				return nil, nil, err
			}
			north = g
		}
		return west, north, nil
	}
	sendFaces := func(t int64) ([]mp.Request, error) {
		k0, v := r.tileRange(t)
		var reqs []mp.Request
		if r.hasEast() {
			buf := r.packEastFace(k0, v)
			req, err := r.c.Isend(r.eastRank(), tileTag(t, dirWest), buf)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
			r.stats.MsgsSent++
			r.stats.BytesSent += int64(len(buf))
		}
		if r.hasSouth() {
			buf := r.packSouthFace(k0, v)
			req, err := r.c.Isend(r.southRank(), tileTag(t, dirNorth), buf)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
			r.stats.MsgsSent++
			r.stats.BytesSent += int64(len(buf))
		}
		return reqs, nil
	}

	// Prologue: pre-post the receives for tile 0.
	curWest, curNorth, err := post(0)
	if err != nil {
		return err
	}
	n := r.numTiles()
	for t := int64(0); t < n; t++ {
		k0, v := r.tileRange(t)
		// Non-blocking sends of the previous tile's results.
		var sendReqs []mp.Request
		if t > 0 {
			if sendReqs, err = sendFaces(t - 1); err != nil {
				return err
			}
		}
		// Post receives for the next tile.
		var nextWest, nextNorth *ghostRecv
		if t+1 < n {
			if nextWest, nextNorth, err = post(t + 1); err != nil {
				return err
			}
		}
		// Wait for this tile's ghosts, then compute.
		if curWest != nil {
			if _, err := curWest.req.Wait(); err != nil {
				return err
			}
			r.unpackWestGhost(curWest.buf, k0, v)
			r.stats.MsgsRecvd++
		}
		if curNorth != nil {
			if _, err := curNorth.req.Wait(); err != nil {
				return err
			}
			r.unpackNorthGhost(curNorth.buf, k0, v)
			r.stats.MsgsRecvd++
		}
		r.computeTile(k0, v)
		if err := mp.WaitAll(sendReqs...); err != nil {
			return err
		}
		curWest, curNorth = nextWest, nextNorth
	}
	// Epilogue: ship the last tile's faces.
	reqs, err := sendFaces(n - 1)
	if err != nil {
		return err
	}
	return mp.WaitAll(reqs...)
}

// Gather assembles the full grid on rank 0 via the mp gather collective
// (other ranks return nil).
func Gather(c mp.Comm, cfg Config, l *Local) (*stencil.Grid, error) {
	g := cfg.Grid
	blockLen := int(8 * l.TI * l.TJ * l.K)
	block := make([]byte, blockLen)
	o := 0
	for li := int64(0); li < l.TI; li++ {
		for lj := int64(0); lj < l.TJ; lj++ {
			for _, v := range l.Data[l.idx(li, lj, 0):][:l.K] {
				putF64(block[o:], v)
				o += 8
			}
		}
	}
	blocks, err := mp.GatherBytesSized(c, 0, block, blockLen)
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	sp, err := space.Rect(g.I, g.J, g.K)
	if err != nil {
		return nil, err
	}
	out := stencil.NewGrid(sp)
	for rank, buf := range blocks {
		pi, pj := int64(rank)/g.PJ, int64(rank)%g.PJ
		o := 0
		for li := int64(0); li < l.TI; li++ {
			for lj := int64(0); lj < l.TJ; lj++ {
				row := out.Data[((pi*l.TI+li)*g.J+pj*l.TJ+lj)*g.K:][:l.K]
				for k := range row {
					row[k] = getF64(buf[o:])
					o += 8
				}
			}
		}
	}
	return out, nil
}

// VerifySequential runs the kernel sequentially over the full space and
// returns the maximum absolute difference against the gathered grid.
func VerifySequential(g *stencil.Grid, cfg Config) (float64, error) {
	sp, err := space.Rect(cfg.Grid.I, cfg.Grid.J, cfg.Grid.K)
	if err != nil {
		return 0, err
	}
	ref, err := stencil.RunSequential(sp, cfg.Kernel, cfg.Boundary)
	if err != nil {
		return 0, err
	}
	return stencil.MaxAbsDiff(g, ref)
}

func putF64(b []byte, v float64) {
	u := math.Float64bits(v)
	b[0] = byte(u >> 56)
	b[1] = byte(u >> 48)
	b[2] = byte(u >> 40)
	b[3] = byte(u >> 32)
	b[4] = byte(u >> 24)
	b[5] = byte(u >> 16)
	b[6] = byte(u >> 8)
	b[7] = byte(u)
}

func getF64(b []byte) float64 {
	u := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	return math.Float64frombits(u)
}
