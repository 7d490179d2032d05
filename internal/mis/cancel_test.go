package mis

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"congestlb/internal/graphs"
)

// Cancellation contract (the Lab API's gating property): ExactCtx polls
// its context every stepFlushBatch explored nodes and returns the best
// incumbent found so far together with ctx.Err() — a valid independent
// set, never a torn result.

// cancelTestGraph is a deliberately hard instance (~300k sequential search
// nodes, ~180ms on a 2-vCPU Xeon) so a millisecond-scale cancel lands
// reliably mid-solve.
func cancelTestGraph() *graphs.Graph {
	return randomGraph(160, 0.15, 9, rand.New(rand.NewSource(33)))
}

// TestExactCtxPreCancelled pins the fast path deterministically: a context
// that is dead on arrival returns the greedy seed incumbent before the
// search explores a single node.
func TestExactCtxPreCancelled(t *testing.T) {
	g := cancelTestGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	greedy := Greedy(g, GreedyByRatio)
	sol, err := ExactCtx(ctx, g, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol.Optimal {
		t.Fatal("cancelled solve claims optimality")
	}
	if sol.Steps != 0 {
		t.Fatalf("pre-cancelled solve explored %d nodes", sol.Steps)
	}
	w, verr := Verify(g, sol.Set)
	if verr != nil || w != sol.Weight {
		t.Fatalf("incumbent invalid: w=%d err=%v", w, verr)
	}
	if sol.Weight < greedy.Weight {
		t.Fatalf("incumbent %d below greedy seed %d", sol.Weight, greedy.Weight)
	}
}

// TestExactCtxCancelMidSolve cancels a running solve: the incumbent comes
// back valid with context.Canceled, having explored strictly less of the
// tree than a full solve (the search actually stopped), within one poll
// cadence of the cancel point.
func TestExactCtxCancelMidSolve(t *testing.T) {
	g := cancelTestGraph()
	full, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// MaxSteps is a failsafe: if cancellation regressed entirely the
	// budget still stops the solve, and the error assertion below
	// reports the regression instead of hanging the suite.
	sol, err := ExactCtx(ctx, g, Options{MaxSteps: 20_000_000})
	elapsed := time.Since(start)
	cancel()
	if err == nil {
		// An implausibly fast host finished the search inside the 5ms
		// fuse; the contract was not exercised, not violated.
		t.Skipf("solve completed in %v before the cancel fired", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol.Optimal {
		t.Fatal("cancelled solve claims optimality")
	}
	w, verr := Verify(g, sol.Set)
	if verr != nil || w != sol.Weight {
		t.Fatalf("incumbent invalid: w=%d err=%v", w, verr)
	}
	if sol.Weight < Greedy(g, GreedyByRatio).Weight {
		t.Fatal("incumbent below the greedy seed")
	}
	if sol.Steps >= full.Steps {
		t.Fatalf("cancelled solve explored %d nodes, full solve only %d — it never stopped", sol.Steps, full.Steps)
	}
	// The return must trail the cancel by at most the batched poll
	// cadence, not by anything proportional to the remaining tree.
	// 250ms is orders of magnitude above one 1024-node batch while
	// still far below the ~50x-budget tail a broken poll would take.
	if elapsed > 250*time.Millisecond {
		t.Fatalf("solve returned %v after start (cancel at 5ms) — poll cadence broken", elapsed)
	}
}

// TestExactCtxBackgroundMatchesExact pins that the context plumbing is
// inert when unused: ExactCtx(Background) returns the bit-identical
// Solution (set, weight, steps) Exact returns.
func TestExactCtxBackgroundMatchesExact(t *testing.T) {
	g := randomGraph(56, 0.3, 9, rand.New(rand.NewSource(21)))
	plain, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := ExactCtx(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Weight != ctxed.Weight || plain.Steps != ctxed.Steps || len(plain.Set) != len(ctxed.Set) {
		t.Fatalf("background-ctx solve diverged: %+v vs %+v", ctxed, plain)
	}
	for i := range plain.Set {
		if plain.Set[i] != ctxed.Set[i] {
			t.Fatalf("witness diverged at %d", i)
		}
	}
	// nil ctx is documented to mean Background.
	niled, err := ExactCtx(nil, g, Options{}) //nolint:staticcheck
	if err != nil || niled.Weight != plain.Weight {
		t.Fatalf("nil-ctx solve diverged: %+v err=%v", niled, err)
	}
}
