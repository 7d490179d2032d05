package mis

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"congestlb/internal/obs"
)

// Progress contract (Options.Progress): a solve delivers the greedy
// seed weight first, then one event per strict incumbent improvement,
// strictly weight-increasing end to end — even when the solve is
// cancelled mid-search. This is the channel Lab.WatchSolve builds on.

// progressSink collects events; safe for concurrent delivery.
type progressSink struct {
	mu     sync.Mutex
	events []obs.ProgressEvent
}

func (p *progressSink) OnIncumbent(ev obs.ProgressEvent) {
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
}

func (p *progressSink) weights() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := make([]int64, len(p.events))
	for i, ev := range p.events {
		ws[i] = ev.Weight
	}
	return ws
}

func assertStrictlyIncreasing(t *testing.T, ws []int64) {
	t.Helper()
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatalf("progress weights not strictly increasing at %d: %v", i, ws)
		}
	}
}

func TestProgressObserverSequence(t *testing.T) {
	g := randomGraph(90, 0.15, 9, rand.New(rand.NewSource(11)))
	seed := SeedIncumbent(g)
	sink := &progressSink{}
	sol, err := Exact(g, Options{Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	ws := sink.weights()
	if len(ws) == 0 {
		t.Fatal("no progress events")
	}
	if ws[0] != seed.Weight {
		t.Fatalf("first event %d, want greedy seed %d", ws[0], seed.Weight)
	}
	assertStrictlyIncreasing(t, ws)
	if last := ws[len(ws)-1]; last != sol.Weight {
		t.Fatalf("last event %d, want final weight %d", last, sol.Weight)
	}
}

// TestProgressObserverCancelled: a cancelled large solve still delivers a
// strictly weight-increasing sequence whose last event matches the
// returned incumbent.
func TestProgressObserverCancelled(t *testing.T) {
	g := cancelTestGraph()
	sink := &progressSink{}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	sol, err := ExactCtx(ctx, g, Options{MaxSteps: 20_000_000, Progress: sink})
	cancel()
	if err == nil {
		t.Skip("solve finished before the cancel fired")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	ws := sink.weights()
	if len(ws) == 0 {
		t.Fatal("cancelled solve delivered no events")
	}
	assertStrictlyIncreasing(t, ws)
	if last := ws[len(ws)-1]; last != sol.Weight {
		t.Fatalf("last event %d, incumbent %d", last, sol.Weight)
	}
}

// TestProgressObserverInert pins that observing a solve cannot change
// its result: with and without an observer, weight, witness, and step
// count are identical (the observer fires on improvement sites only and
// the search never reads it).
func TestProgressObserverInert(t *testing.T) {
	g := randomGraph(70, 0.2, 7, rand.New(rand.NewSource(42)))
	plain, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &progressSink{}
	observed, err := Exact(g, Options{Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Weight != observed.Weight || plain.Steps != observed.Steps {
		t.Fatalf("observer perturbed the solve: %+v vs %+v", observed, plain)
	}
	for i := range plain.Set {
		if plain.Set[i] != observed.Set[i] {
			t.Fatalf("observer perturbed the witness at %d", i)
		}
	}
}
