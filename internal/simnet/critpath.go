package simnet

// Critical-path extraction: after Run, every activity knows which single
// predecessor determined its start time — either a dependency (the last
// dataflow predecessor to finish) or the previous occupant of its resource
// (contention). Walking those edges back from the last-finishing activity
// yields the chain that fixes the makespan, separating "the schedule is
// dependence-bound" from "a resource is saturated".

// CritKind classifies why an activity started when it did.
type CritKind uint8

const (
	// CritStart marks a chain head: the activity started at time 0.
	CritStart CritKind = iota
	// CritDependency: the activity waited for a dataflow predecessor.
	CritDependency
	// CritResource: the activity waited for its resource to free up.
	CritResource
)

func (k CritKind) String() string {
	switch k {
	case CritStart:
		return "start"
	case CritDependency:
		return "dependency"
	case CritResource:
		return "resource"
	default:
		return "unknown"
	}
}

// CritStep is one element of a critical path.
type CritStep struct {
	Label    string
	Resource string
	Start    float64
	End      float64
	Kind     CritKind // why this step could not start earlier
}

// CriticalPath returns the chain of activities fixing the makespan, in
// execution order. It must be called after Run; it returns nil on an empty
// or unrun engine.
func (e *Engine) CriticalPath() []CritStep {
	if len(e.done) != len(e.res) {
		return nil // not run since the last activity was registered
	}
	var last ActID
	for a := ActID(1); int(a) < len(e.res); a++ {
		if !e.done[a] {
			return nil
		}
		if last == 0 || e.end[a] > e.end[last] {
			last = a
		}
	}
	if last == 0 {
		return nil
	}
	var rev []ActID
	for a := last; a != 0; a = e.critPred[a] {
		rev = append(rev, a)
	}
	out := make([]CritStep, len(rev))
	for i := range rev {
		a := rev[len(rev)-1-i]
		out[i] = CritStep{
			Label:    e.label(a),
			Resource: e.ResName(e.res[a]),
			Start:    e.start[a],
			End:      e.end[a],
			Kind:     e.critKind[a],
		}
	}
	return out
}

// CriticalPathStats summarizes a critical path: total time attributable to
// dependency waits versus resource contention versus the work itself.
type CriticalPathStats struct {
	Steps          int
	WorkTime       float64 // Σ durations along the path
	DependencyHops int
	ResourceHops   int
}

// Stats aggregates a critical path.
func Stats(path []CritStep) CriticalPathStats {
	var s CriticalPathStats
	s.Steps = len(path)
	for _, p := range path {
		s.WorkTime += p.End - p.Start
		switch p.Kind {
		case CritDependency:
			s.DependencyHops++
		case CritResource:
			s.ResourceHops++
		}
	}
	return s
}
