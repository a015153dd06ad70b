package simnet

import (
	"fmt"
	"math"
)

// ResID is the handle of a serially-shared resource (a CPU, a DMA engine, a
// NIC port). Handles are dense: the n-th registered resource is ResID(n).
type ResID int32

// ActID is the handle of an activity, a unit of work bound to one resource.
// Handles count up from 1 in registration order; the zero ActID means
// "none", so zero-valued ActID fields need no sentinel initialization.
type ActID int32

// edge is one precedence constraint, buffered until Run builds the CSR
// successor lists.
type edge struct {
	before, after ActID
}

// Engine owns the resources and activities of one simulation. All state
// lives in flat, pointer-free columns indexed by handle, so the garbage
// collector never scans them and the hot loop of Run never hits a write
// barrier.
type Engine struct {
	// Per-activity columns, indexed by ActID (slot 0 is the reserved "none"
	// activity). res and dur are filled at registration; the rest are
	// sized and cleared by Run.
	res       []ResID
	dur       []float64
	start     []float64
	end       []float64
	ready     []float64 // max end time of completed predecessors
	est       []float64 // earliest start from dependencies alone
	npreds    []int32
	succOff   []int32 // successors live in succList[succOff:succOff+succN]
	succN     []int32
	readyPred []ActID // the predecessor whose completion set ready
	critPred  []ActID // see critpath.go
	critKind  []CritKind
	done      []bool

	// Per-resource columns, indexed by ResID.
	freeAt   []float64
	busy     []bool
	busyTime []float64 // total occupancy, for utilization reporting
	last     []ActID   // most recently completed activity, for critical paths
	// pending[r] is r's ready heap. The inner backing arrays are kept
	// across Resets.
	pending [][]ActID

	// Side tables for human-readable names, filled only for non-empty
	// strings (in practice only by traced builds): labels[a] and
	// resNames[r] are "" or absent otherwise.
	labels   []string
	resNames []string

	edges    []edge
	succList []ActID
	events   eventHeap

	// Lower bounds of the last Run (see checkBounds).
	pathBound, resBound float64

	trace     []TraceEntry
	keepTrace bool
	skipUtil  bool
	perturb   PerturbFunc

	// intervals is the string-free activity log behind KeepIntervals. Unlike
	// trace it is reused across Resets: callers consume it synchronously
	// (Intervals is invalidated by the next Reset), so the backing array can
	// be recycled instead of abandoned.
	intervals     []Interval
	keepIntervals bool
}

// PerturbFunc rescales an activity's nominal duration at registration time
// — the engine's fault-injection hook. It receives the resource the
// activity is bound to and the nominal duration and returns the perturbed
// duration, which must remain non-negative and finite. Builders install one
// via SetPerturb to model stragglers, slow links or jittered transfers
// without changing the graph structure.
type PerturbFunc func(r ResID, duration float64) float64

// TraceEntry records one executed activity for Gantt rendering.
type TraceEntry struct {
	Resource string
	Label    string
	Start    float64
	End      float64
	// Ready is when the activity's last dataflow predecessor finished (0 for
	// chain heads): Start − Ready is how long it queued for its resource.
	Ready float64
}

// Interval records one executed activity for metrics accounting: which
// resource ran it and when. Unlike TraceEntry it carries no strings, so the
// log stays cheap enough for untraced sweep simulations (see KeepIntervals).
type Interval struct {
	Res ResID
	// Ready is when the activity's last dataflow predecessor finished;
	// Start − Ready is the time spent queued behind the resource.
	Ready      float64
	Start, End float64
}

// NewEngine returns an empty simulation.
func NewEngine() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset rewinds the engine so it can build and run a fresh simulation while
// reusing every column, heap and edge buffer of the previous one. Any Trace
// slice handed out by the previous Run is abandoned to its caller (never
// overwritten). Handles from before the Reset must not be used afterwards.
func (e *Engine) Reset() {
	// Slot 0 of every activity column is the reserved "none" activity.
	e.res = append(e.res[:0], -1)
	e.dur = append(e.dur[:0], 0)
	e.start = e.start[:0]
	e.end = e.end[:0]
	e.done = e.done[:0]
	e.freeAt = e.freeAt[:0]
	e.busy = e.busy[:0]
	e.busyTime = e.busyTime[:0]
	e.last = e.last[:0]
	e.pending = e.pending[:0]
	clear(e.labels)
	e.labels = e.labels[:0]
	clear(e.resNames)
	e.resNames = e.resNames[:0]
	e.edges = e.edges[:0]
	e.succList = e.succList[:0]
	e.events = e.events[:0]
	if len(e.trace) > 0 {
		e.trace = nil // the previous caller owns it now
	}
	e.intervals = e.intervals[:0]
	e.keepTrace = false
	e.keepIntervals = false
	e.skipUtil = false
	e.perturb = nil
}

// SetPerturb installs (or, with nil, removes) the duration perturbation
// hook applied to every subsequently registered activity. Reset removes the
// hook, so a reused engine starts each simulation unperturbed.
func (e *Engine) SetPerturb(f PerturbFunc) { e.perturb = f }

// KeepTrace enables recording of a full execution trace (off by default to
// keep large sweeps cheap).
func (e *Engine) KeepTrace(on bool) { e.keepTrace = on }

// KeepIntervals enables recording of the string-free per-activity interval
// log (off by default). It is the cheap sibling of KeepTrace for metrics
// accounting: no labels or resource names are materialized, and the backing
// array is recycled across Resets. Read the log with Intervals after Run.
func (e *Engine) KeepIntervals(on bool) { e.keepIntervals = on }

// Intervals returns the interval log of the last Run (nil unless
// KeepIntervals was on). The returned slice is owned by the engine and is
// invalidated by the next Reset: callers must finish aggregating before
// reusing the engine.
func (e *Engine) Intervals() []Interval { return e.intervals }

// KeepUtilization controls whether Run materializes the Result.Utilization
// map (on by default). Sweep-style callers that read BusyTime directly turn
// it off to avoid per-run map and string churn.
func (e *Engine) KeepUtilization(on bool) { e.skipUtil = !on }

// Reserve pre-sizes the engine's columns for a graph of about the given
// number of resources, activities and dependence edges, so a builder that
// knows its node, tile and message counts up front avoids regrowth
// entirely.
func (e *Engine) Reserve(resources, activities, deps int) {
	e.freeAt = grow(e.freeAt, resources)
	e.busy = grow(e.busy, resources)
	e.busyTime = grow(e.busyTime, resources)
	e.last = grow(e.last, resources)
	e.pending = grow(e.pending, resources)
	e.res = grow(e.res, activities)
	e.dur = grow(e.dur, activities)
	e.edges = grow(e.edges, deps)
}

// grow returns s with room for n more elements without reallocation.
func grow[T any](s []T, n int) []T {
	if need := len(s) + n; cap(s) < need {
		grown := make([]T, len(s), need)
		copy(grown[:cap(s)], s[:cap(s)]) // keep what lies past len, too
		return grown
	}
	return s
}

// column returns s resized to n zeroed elements, reusing its backing array
// when it is large enough.
func column[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NewResource registers a serially-shared resource.
func (e *Engine) NewResource(name string) ResID {
	r := ResID(len(e.freeAt))
	e.freeAt = append(e.freeAt, 0)
	e.busy = append(e.busy, false)
	e.busyTime = append(e.busyTime, 0)
	e.last = append(e.last, 0)
	if int(r) < cap(e.pending) {
		e.pending = e.pending[:r+1]
		e.pending[r] = e.pending[r][:0] // keep the heap's backing array
	} else {
		e.pending = append(e.pending, nil)
	}
	if name != "" {
		e.resNames = setName(e.resNames, int(r), name)
	}
	return r
}

// setName stores name at index i of a side table, padding with "".
func setName(t []string, i int, name string) []string {
	if len(t) <= i {
		t = append(t, make([]string, i+1-len(t))...)
	}
	t[i] = name
	return t
}

// NewActivity registers an activity of the given duration on resource r.
// Durations must be non-negative; zero-duration activities are permitted
// (useful as synchronization points).
func (e *Engine) NewActivity(r ResID, duration float64, label string) ActID {
	if r < 0 || int(r) >= len(e.freeAt) {
		panic(fmt.Sprintf("simnet: unknown resource %d", r))
	}
	if duration < 0 || math.IsNaN(duration) {
		panic(fmt.Sprintf("simnet: invalid duration %g for %q", duration, label))
	}
	if e.perturb != nil {
		duration = e.perturb(r, duration)
		if duration < 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
			panic(fmt.Sprintf("simnet: perturbed duration %g for %q is invalid", duration, label))
		}
	}
	a := ActID(len(e.res))
	e.res = append(e.res, r)
	e.dur = append(e.dur, duration)
	if label != "" {
		e.labels = setName(e.labels, int(a), label)
	}
	return a
}

// AddDep declares that 'before' must finish before 'after' may start.
func (e *Engine) AddDep(before, after ActID) {
	if before <= 0 || after <= 0 || int(before) >= len(e.res) || int(after) >= len(e.res) {
		panic(fmt.Sprintf("simnet: invalid activity in dependency %d -> %d", before, after))
	}
	e.edges = append(e.edges, edge{before, after})
}

// Start returns when activity a started in the last Run (0 before Run).
func (e *Engine) Start(a ActID) float64 {
	if int(a) >= len(e.start) {
		return 0
	}
	return e.start[a]
}

// End returns when activity a finished in the last Run (0 before Run).
func (e *Engine) End(a ActID) float64 {
	if int(a) >= len(e.end) {
		return 0
	}
	return e.end[a]
}

// BusyTime returns the total time resource r spent executing activities in
// the last Run. Dividing by the makespan gives its utilization without
// materializing the Result.Utilization map.
func (e *Engine) BusyTime(r ResID) float64 { return e.busyTime[r] }

// ResName returns the name resource r was registered with.
func (e *Engine) ResName(r ResID) string { return nameAt(e.resNames, int(r)) }

func (e *Engine) label(a ActID) string { return nameAt(e.labels, int(a)) }

func nameAt(t []string, i int) string {
	if i < len(t) {
		return t[i]
	}
	return ""
}

// buildSuccs sizes the run-time columns and compacts the edge list into the
// CSR successor array: one pass counts in- and out-degrees, a prefix sum
// assigns offsets, a second pass fills.
func (e *Engine) buildSuccs() {
	n := len(e.res)
	e.npreds = column(e.npreds, n)
	e.succOff = column(e.succOff, n)
	e.succN = column(e.succN, n)
	npreds, succOff, succN := e.npreds, e.succOff, e.succN
	for _, ed := range e.edges {
		succN[ed.before]++
		npreds[ed.after]++
	}
	var off int32
	for a := range succN {
		succOff[a] = off
		off += succN[a]
		succN[a] = 0
	}
	e.succList = column(e.succList, len(e.edges))
	for _, ed := range e.edges {
		b := ed.before
		e.succList[succOff[b]+succN[b]] = ed.after
		succN[b]++
	}
}

// completion is an entry in the event heap.
type completion struct {
	t   float64
	seq int32
	act ActID
}

// eventHeap is a binary min-heap over (time, sequence). The push/pop
// functions are hand-rolled instead of container/heap because the latter
// boxes every pushed element into an interface — one allocation per
// scheduled event, the dominant churn of large sweeps. Sequence numbers are
// unique, so the pop order is a strict total order that does not depend on
// the heap's internal layout.
type eventHeap []completion

func (c completion) before(d completion) bool {
	if c.t != d.t {
		return c.t < d.t
	}
	return c.seq < d.seq
}

func (h *eventHeap) push(c completion) {
	s := append(*h, c)
	*h = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = c
}

// pop removes the earliest completion. It walks the hole left at the root
// down to a leaf along the smaller children, then sifts the former last
// element up from there (Floyd's variant: about half the comparisons of a
// plain sift-down, since the last element usually belongs near a leaf).
func (h *eventHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		s[i] = s[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !last.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = last
	return top
}

// readyBefore orders ready activities by (ready time, handle); handle order
// is creation order.
func readyBefore(ready []float64, a, b ActID) bool {
	if ready[a] != ready[b] {
		return ready[a] < ready[b]
	}
	return a < b
}

// pushReady adds a to resource r's ready heap (hand-rolled for the same
// allocation reason as eventHeap).
func (e *Engine) pushReady(r ResID, a ActID) {
	s := append(e.pending[r], a)
	e.pending[r] = s
	ready := e.ready
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !readyBefore(ready, s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// popReady removes and returns the earliest-ready activity of r's heap.
func (e *Engine) popReady(r ResID) ActID {
	s := e.pending[r]
	ready := e.ready
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	e.pending[r] = s
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		min := i
		if l < n && readyBefore(ready, s[l], s[min]) {
			min = l
		}
		if rt < n && readyBefore(ready, s[rt], s[min]) {
			min = rt
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Result summarizes a completed simulation.
type Result struct {
	Makespan float64
	// Utilization maps resource name to busy-time / makespan. It is nil
	// when KeepUtilization(false) was set; read Engine.BusyTime instead.
	Utilization map[string]float64
	Trace       []TraceEntry
}

// Run executes the simulation to completion and returns the makespan. It
// returns an error if not every activity could run, which indicates a
// dependency cycle (a deadlocked schedule), or if the makespan undercuts a
// lower bound (see checkBounds). Run consumes the dependence counts, so it
// may be called only once per build; call Reset and rebuild to simulate
// again.
func (e *Engine) Run() (Result, error) {
	e.buildSuccs()
	n := len(e.res)
	e.start = column(e.start, n)
	e.end = column(e.end, n)
	e.ready = column(e.ready, n)
	e.est = column(e.est, n)
	e.readyPred = column(e.readyPred, n)
	e.critPred = column(e.critPred, n)
	e.critKind = column(e.critKind, n)
	e.done = column(e.done, n)
	e.events = e.events[:0]

	res, dur, start, end, ready, est := e.res, e.dur, e.start, e.end, e.ready, e.est
	npreds, succOff, succN, succList := e.npreds, e.succOff, e.succN, e.succList
	readyPred, critPred, critKind, done := e.readyPred, e.critPred, e.critKind, e.done
	freeAt, busy, busyTime, last := e.freeAt, e.busy, e.busyTime, e.last
	events := &e.events
	var seq int32
	now := 0.0

	// startOn starts r's earliest-ready activity; callers check that r is
	// idle and has pending work (the common case of a busy or empty
	// resource then costs no call).
	startOn := func(r ResID) {
		a := e.popReady(r)
		t := ready[a]
		critPred[a] = readyPred[a]
		critKind[a] = CritDependency
		if readyPred[a] == 0 {
			critKind[a] = CritStart
		}
		if freeAt[r] > t {
			t = freeAt[r]
			if last[r] != 0 {
				critPred[a] = last[r]
				critKind[a] = CritResource
			}
		}
		if t < now {
			t = now
		}
		start[a] = t
		end[a] = t + dur[a]
		busy[r] = true
		events.push(completion{t: end[a], seq: seq, act: a})
		seq++
	}
	pending := e.pending
	idleWithWork := func(r ResID) bool { return !busy[r] && len(pending[r]) > 0 }

	// Seed: all activities with no predecessors are ready at t=0.
	for a := ActID(1); int(a) < n; a++ {
		if npreds[a] == 0 {
			e.pushReady(res[a], a)
		}
	}
	for r := range freeAt {
		if idleWithWork(ResID(r)) {
			startOn(ResID(r))
		}
	}

	completed := 0
	pathBound := 0.0
	for len(*events) > 0 {
		ev := events.pop()
		a := ev.act
		now = ev.t
		done[a] = true
		completed++
		r := res[a]
		busy[r] = false
		freeAt[r] = end[a]
		last[r] = a
		busyTime[r] += dur[a]
		if e.keepTrace {
			e.trace = append(e.trace, TraceEntry{Resource: e.ResName(r), Label: e.label(a), Start: start[a], End: end[a], Ready: ready[a]})
		}
		if e.keepIntervals {
			e.intervals = append(e.intervals, Interval{Res: r, Ready: ready[a], Start: start[a], End: end[a]})
		}
		// The dependency-only finish time of a: no resource waits.
		fin := est[a] + dur[a]
		if fin > pathBound {
			pathBound = fin
		}
		succs := succList[succOff[a] : succOff[a]+succN[a]]
		for _, s := range succs {
			npreds[s]--
			if end[a] > ready[s] {
				ready[s] = end[a]
				readyPred[s] = a
			}
			if fin > est[s] {
				est[s] = fin
			}
			if npreds[s] == 0 {
				e.pushReady(res[s], s)
			}
		}
		// The freed resource and any resources that gained ready work may
		// start something. Trying all successors' resources plus r covers
		// every resource whose pending set changed.
		if idleWithWork(r) {
			startOn(r)
		}
		for _, s := range succs {
			if rs := res[s]; idleWithWork(rs) {
				startOn(rs)
			}
		}
	}

	if completed != n-1 {
		return Result{}, fmt.Errorf("simnet: deadlock, only %d of %d activities completed (dependency cycle?)",
			completed, n-1)
	}
	e.pathBound, e.resBound = pathBound, 0
	for _, b := range busyTime {
		e.resBound = max(e.resBound, b)
	}
	if err := checkBounds(now, e.pathBound, e.resBound); err != nil {
		return Result{}, err
	}
	out := Result{Makespan: now, Trace: e.trace}
	if !e.skipUtil {
		out.Utilization = make(map[string]float64, len(busyTime))
		for r, b := range busyTime {
			if now > 0 {
				out.Utilization[e.ResName(ResID(r))] = b / now
			} else {
				out.Utilization[e.ResName(ResID(r))] = 0
			}
		}
	}
	return out, nil
}

// checkBounds verifies the makespan against two lower bounds every feasible
// schedule obeys: the longest dependency-only path (each activity started
// the moment its predecessors finished) and the busiest resource's total
// occupancy. Float addition is monotone, so both hold bit for bit and the
// comparison needs no tolerance; a violation means the engine is broken.
func checkBounds(makespan, path, resource float64) error {
	if makespan < path || makespan < resource {
		return fmt.Errorf("simnet: makespan %g undercuts its lower bound (dependency path %g, busiest resource %g)",
			makespan, path, resource)
	}
	return nil
}

// NumActivities returns how many activities have been registered.
func (e *Engine) NumActivities() int { return len(e.res) - 1 }

// NumResources returns how many resources have been registered.
func (e *Engine) NumResources() int { return len(e.freeAt) }
