package obs

import "sync"

// ProgressEvent is one incumbent improvement reported by an exact
// solver (or the final result of a watched solve).
type ProgressEvent struct {
	// Weight is the incumbent independent set's total weight after the
	// improvement.
	Weight int64
	// Steps is the number of branch-and-bound nodes explored when the
	// improvement was found.
	Steps int64
	// Final marks the closing event of a watched solve
	// (Lab.WatchSolve): the solve has returned and Weight is the
	// result's weight. Engines never set it.
	Final bool
}

// ProgressObserver receives incumbent improvements. Implementations
// must be safe for concurrent use (one solve's events are serialised —
// see mis — but a solve may run concurrently with whatever else the
// observer's owner does) and must return quickly: the solver fires the
// observer inline from the search loop.
type ProgressObserver interface {
	OnIncumbent(ev ProgressEvent)
}

// ObserverFunc adapts a function to the ProgressObserver interface.
type ObserverFunc func(ProgressEvent)

// OnIncumbent calls f(ev).
func (f ObserverFunc) OnIncumbent(ev ProgressEvent) { f(ev) }

// Tee fans one event stream out to both observers. Either may be nil;
// with at most one non-nil argument the non-nil one (or nil) is
// returned directly.
func Tee(a, b ProgressObserver) ProgressObserver {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return ObserverFunc(func(ev ProgressEvent) {
		a.OnIncumbent(ev)
		b.OnIncumbent(ev)
	})
}

// IncumbentObserver returns an observer that books improvements into
// the registry: MSolverIncumbents counts events, MSolverIncumbentWeight
// tracks the last reported weight. Nil registry → nil observer.
func (r *Registry) IncumbentObserver() ProgressObserver {
	if r == nil {
		return nil
	}
	n := r.Counter(MSolverIncumbents)
	w := r.Gauge(MSolverIncumbentWeight)
	return ObserverFunc(func(ev ProgressEvent) {
		n.Inc()
		w.Set(ev.Weight)
	})
}

// Monotonic wraps an observer with a strictly-increasing weight filter:
// events whose weight does not exceed the best already delivered are
// dropped, and delivery is serialised under a mutex, so the downstream
// observer sees a strictly weight-increasing sequence whatever the
// observer is shared with. Finish emits the closing Final event
// unconditionally — it is the termination marker and may repeat the
// last weight.
type Monotonic struct {
	o    ProgressObserver
	mu   sync.Mutex
	last int64
	has  bool
}

// NewMonotonic wraps o; a nil o yields a nil *Monotonic, whose methods
// are no-ops.
func NewMonotonic(o ProgressObserver) *Monotonic {
	if o == nil {
		return nil
	}
	return &Monotonic{o: o}
}

// OnIncumbent delivers ev downstream iff its weight strictly exceeds
// every weight delivered so far.
func (m *Monotonic) OnIncumbent(ev ProgressEvent) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.has && ev.Weight <= m.last {
		return
	}
	m.last, m.has = ev.Weight, true
	m.o.OnIncumbent(ev)
}

// Finish delivers the Final event with the solve's result weight. It
// always fires (even when the weight equals the last improvement —
// e.g. a cache hit delivered no engine events at all), so stream
// consumers get exactly one termination marker.
func (m *Monotonic) Finish(weight, steps int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if weight > m.last {
		m.last = weight
	}
	m.has = true
	m.o.OnIncumbent(ProgressEvent{Weight: weight, Steps: steps, Final: true})
}
