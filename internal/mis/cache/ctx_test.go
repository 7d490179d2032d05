package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

// ctxTestGraph builds a random weighted graph. n=130/p=0.18 is hard
// enough (~1M sequential search nodes) that a solve is reliably in
// flight when a concurrent caller joins it; the entry-check tests use a
// smaller instance so their clean re-solves stay cheap under -race.
func ctxTestGraph(n int, p float64) *graphs.Graph {
	rng := rand.New(rand.NewSource(33))
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), 1+rng.Int63n(9))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// TestCacheExactCtxCancelledNotCached pins the error-caching contract
// under cancellation: a cancelled solve returns the incumbent with
// ctx.Err() and leaves no poisoned entry — the next caller runs (and
// caches) a clean solve.
func TestCacheExactCtxCancelledNotCached(t *testing.T) {
	c := New(8)
	g := ctxTestGraph(70, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExactCtx(ctx, g, mis.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("cancelled solve left %d cache entries", st.Entries)
	}
	sol, err := c.ExactCtx(context.Background(), g, mis.Options{})
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if !sol.Optimal {
		t.Fatal("retry did not produce an optimal solve")
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("retry accounting off: %+v", st)
	}
}

// TestCacheWaiterHonoursOwnContext: a caller blocked on another
// goroutine's in-flight solve must unblock when its own context dies,
// even though the owner keeps solving.
func TestCacheWaiterHonoursOwnContext(t *testing.T) {
	c := New(8)
	g := ctxTestGraph(130, 0.18)

	ownerStarted := make(chan struct{})
	ownerDone := make(chan error, 1)
	ownerCtx, ownerCancel := context.WithCancel(context.Background())
	defer ownerCancel()
	go func() {
		close(ownerStarted)
		_, err := c.ExactCtx(ownerCtx, g, mis.Options{})
		ownerDone <- err
	}()
	<-ownerStarted

	// Join the in-flight solve with a context that dies immediately. The
	// waiter must return promptly with its own ctx error; the test would
	// hang (and time out) if it blocked on the owner's full solve.
	waiterCtx, waiterCancel := context.WithCancel(context.Background())
	for {
		// Spin until the owner's entry is actually registered (its miss is
		// visible in the stats), so the waiter provably joins in flight.
		if st := c.Stats(); st.Misses > 0 {
			break
		}
		runtime.Gosched() // don't starve the owner's registration on 1 core
	}
	waiterCancel()
	if _, err := c.ExactCtx(waiterCtx, g, mis.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want its own context.Canceled", err)
	}
	// The owner is unaffected by the waiter's cancellation.
	ownerCancel()
	if err := <-ownerDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v", err)
	}
}

// TestCompletedEntryServedUnderDeadContext: once a solve is cached, a
// lookup under an already-cancelled context returns the cached result
// deterministically — never a coin-flip between the result and ctx.Err()
// (the select race this pins down had both channels ready).
func TestCompletedEntryServedUnderDeadContext(t *testing.T) {
	c := New(8)
	g := ctxTestGraph(70, 0.2)
	want, err := c.ExactCtx(context.Background(), g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		sol, err := c.ExactCtx(ctx, g, mis.Options{})
		if err != nil {
			t.Fatalf("iteration %d: cached hit returned %v under a dead context", i, err)
		}
		if sol.Weight != want.Weight || !sol.Optimal {
			t.Fatalf("iteration %d: cached hit degraded: %+v", i, sol)
		}
	}
	if st := c.Stats(); st.Hits != 50 {
		t.Fatalf("hits = %d, want 50", st.Hits)
	}
}

// TestWaiterSurvivesOwnerCancellation: when the single-flight owner's
// context dies mid-solve, a waiter whose own context is healthy must not
// inherit the spurious cancellation — it retries fresh and returns a real
// solution.
func TestWaiterSurvivesOwnerCancellation(t *testing.T) {
	c := New(8)
	g := ctxTestGraph(130, 0.18)

	ownerCtx, ownerCancel := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := c.ExactCtx(ownerCtx, g, mis.Options{})
		ownerDone <- err
	}()
	for {
		if st := c.Stats(); st.Misses > 0 {
			break
		}
		runtime.Gosched()
	}
	waiterDone := make(chan struct{})
	var waiterSol mis.Solution
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterSol, waiterErr = c.ExactCtx(context.Background(), g, mis.Options{})
	}()
	ownerCancel()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		// The owner may legitimately have finished before the cancel; the
		// waiter then sees a completed entry and the retry path is moot.
		t.Skipf("owner finished before cancellation: %v", err)
	}
	<-waiterDone
	if waiterErr != nil {
		t.Fatalf("healthy waiter inherited the owner's cancellation: %v", waiterErr)
	}
	if !waiterSol.Optimal {
		t.Fatal("waiter's retried solve not optimal")
	}
}

// TestSessionWithContext pins the session binding: a session bound to a
// dead context cancels its solves (attribution intact), and an explicit
// ExactCtx overrides the bound context per call.
func TestSessionWithContext(t *testing.T) {
	c := New(8)
	g := ctxTestGraph(70, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	sess := NewSession(c).WithContext(ctx)
	if _, err := sess.Exact(g, mis.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("bound-context solve err = %v, want context.Canceled", err)
	}
	if st := sess.Stats(); st.Misses != 1 {
		t.Fatalf("cancelled solve not attributed: %+v", st)
	}
	// Per-call override: Background beats the dead bound context.
	sol, err := sess.ExactCtx(context.Background(), g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal {
		t.Fatal("override solve not optimal")
	}
	// nil session stays valid with contexts too.
	var nilSess *Session
	if _, err := nilSess.ExactCtx(ctx, g, mis.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil-session ctx solve err = %v", err)
	}
}
