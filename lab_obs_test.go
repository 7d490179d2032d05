package congestlb_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"congestlb"
)

// eventLog is a concurrency-safe ProgressObserver recording every event.
type eventLog struct {
	mu     sync.Mutex
	events []congestlb.ProgressEvent
	// onEvent, when set, runs under the lock for each event (used to
	// cancel a solve from inside its own progress stream).
	onEvent func(congestlb.ProgressEvent)
}

func (l *eventLog) OnIncumbent(ev congestlb.ProgressEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
	if l.onEvent != nil {
		l.onEvent(ev)
	}
}

func (l *eventLog) snapshot() []congestlb.ProgressEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]congestlb.ProgressEvent(nil), l.events...)
}

// requireWatchStream asserts the WatchSolve contract on a recorded
// stream: strictly increasing weights, exactly one Final event, at the
// end, carrying the returned solution's weight.
func requireWatchStream(t *testing.T, events []congestlb.ProgressEvent, finalWeight int64) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("watch stream empty — no Final event delivered")
	}
	for i, ev := range events {
		if ev.Final != (i == len(events)-1) {
			t.Fatalf("event %d/%d: Final = %v", i, len(events), ev.Final)
		}
	}
	for i := 1; i < len(events)-1; i++ {
		if events[i].Weight <= events[i-1].Weight {
			t.Fatalf("weights not strictly increasing: event %d %d after %d",
				i, events[i].Weight, events[i-1].Weight)
		}
	}
	last := events[len(events)-1]
	if last.Weight != finalWeight {
		t.Fatalf("Final event weight %d, solution weight %d", last.Weight, finalWeight)
	}
}

// TestLabWatchSolve: a watched solve streams strictly weight-increasing
// incumbents and terminates with exactly one Final event carrying the
// returned weight; a rewatch of the now-cached instance delivers the
// Final event alone.
func TestLabWatchSolve(t *testing.T) {
	_, inst := buildTestInstance(t, 71)
	lab := newTestLab(t, congestlb.WithMetrics(true))

	var log eventLog
	sol, err := lab.WatchSolve(context.Background(), inst, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal {
		t.Fatal("uncancelled watched solve not optimal")
	}
	requireWatchStream(t, log.snapshot(), sol.Weight)

	// Cached rewatch: no engine runs, so the stream is the termination
	// marker alone — still exactly one Final, still the right weight.
	var rewatch eventLog
	sol2, err := lab.WatchSolve(context.Background(), inst, &rewatch)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Weight != sol.Weight {
		t.Fatalf("cached rewatch weight %d, want %d", sol2.Weight, sol.Weight)
	}
	events := rewatch.snapshot()
	if len(events) != 1 || !events[0].Final {
		t.Fatalf("cached rewatch stream = %+v, want the Final event alone", events)
	}
	requireWatchStream(t, events, sol.Weight)

	// The registry observed the incumbents too (WatchSolve tees, never
	// replaces, the Lab's own observability).
	if lab.Metrics().Counter("solver_incumbent_updates") == 0 {
		t.Fatal("watched solve booked no incumbents in the Lab registry")
	}
}

// TestLabWatchSolveCancelled is the acceptance criterion for the
// progress API: cancelling a large solve mid-search still yields a
// strictly weight-increasing stream, closed by exactly one Final event
// that carries the returned incumbent's weight.
func TestLabWatchSolveCancelled(t *testing.T) {
	p := congestlb.Params{T: 3, Alpha: 2, Ell: 5}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	in, _, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	lab := newTestLab(t)
	inst, err := congestlb.BuildInstance(fam, in)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := eventLog{onEvent: func(ev congestlb.ProgressEvent) {
		// Cancel from inside the stream, on the first improvement: the
		// solver keeps searching until a step-batch boundary notices the
		// dead context, typically emitting further improvements — all of
		// which must still arrive strictly increasing.
		if !ev.Final {
			cancel()
		}
	}}
	sol, err := lab.WatchSolve(ctx, inst, &log)
	// Whether cancellation won the race or the solve finished first, the
	// stream contract must hold; on the cancelled path the incumbent is
	// returned alongside ctx.Err() and the Final event mirrors it.
	if err == nil && !sol.Optimal {
		t.Fatal("nil error but non-optimal solution")
	}
	if sol.Weight <= 0 {
		t.Fatalf("watched solve lost the incumbent: weight %d", sol.Weight)
	}
	requireWatchStream(t, log.snapshot(), sol.Weight)
}

// TestLabWithObserver: the construction-time observer sees every exact
// solve the Lab runs, without WithMetrics.
func TestLabWithObserver(t *testing.T) {
	_, inst := buildTestInstance(t, 79)
	var log eventLog
	lab := newTestLab(t, congestlb.WithObserver(&log))
	sol, err := lab.ExactMaxIS(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	events := log.snapshot()
	if len(events) == 0 {
		t.Fatal("observer saw no incumbents")
	}
	best := events[0].Weight
	for _, ev := range events[1:] {
		if ev.Weight <= best {
			t.Fatalf("observer weights not strictly increasing: %+v", events)
		}
		best = ev.Weight
	}
	if best != sol.Weight {
		t.Fatalf("last observed incumbent %d, solution %d", best, sol.Weight)
	}
}

// TestLabMetricsHandler drives the ops endpoint end to end: Prometheus
// text, JSON snapshot and span export all serve, and a metrics-less Lab
// returns no handler at all.
func TestLabMetricsHandler(t *testing.T) {
	_, inst := buildTestInstance(t, 83)
	lab := newTestLab(t, congestlb.WithMetrics(true))
	if _, err := lab.ExactMaxIS(context.Background(), inst); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(lab.MetricsHandler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	prom := get("/metrics")
	if !strings.Contains(prom, "congestlb_solve_cache_misses_total") {
		t.Fatalf("/metrics misses the solve counters:\n%s", prom)
	}
	if !strings.Contains(get("/metrics.json"), `"solve_cache_misses"`) {
		t.Fatal("/metrics.json misses the solve counters")
	}
	if !strings.Contains(get("/spans.json"), `"solve"`) {
		t.Fatal("/spans.json misses the solve span")
	}

	if h := newTestLab(t).MetricsHandler(); h != nil {
		t.Fatal("metrics-less Lab returned an ops handler")
	}
}

// TestLabMetricsOffIsEmpty: without WithMetrics every surface is inert —
// empty snapshots, no spans, nil handler — while the Lab works normally.
func TestLabMetricsOffIsEmpty(t *testing.T) {
	_, inst := buildTestInstance(t, 89)
	lab := newTestLab(t)
	if _, err := lab.ExactMaxIS(context.Background(), inst); err != nil {
		t.Fatal(err)
	}
	snap := lab.Metrics()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("metrics-less Lab recorded %+v", snap)
	}
	if st := lab.SpanStats(); st != nil {
		t.Fatalf("metrics-less Lab recorded spans: %+v", st)
	}
}
