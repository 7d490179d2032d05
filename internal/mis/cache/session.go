package cache

import (
	"context"
	"sync"

	"congestlb/internal/graphs"
	"congestlb/internal/mis"
	"congestlb/internal/obs"
)

// Session is a per-caller view of a Cache: it forwards every solve to the
// underlying cache while keeping its own exact event counters.
//
// Sessions exist for attribution. The runner's experiment jobs all meet in
// their run's one cache, so diffing the cache's counters around a job
// misattributes whatever concurrent jobs did in the window; handing each
// job its own Session makes the per-experiment cache/step numbers in the
// JSON envelope exact at any -jobs count. With single-flight dedup, the
// session that runs a solve books its steps under StepsSolved while every
// session served by someone else's solve books them under StepsSaved.
//
// A session over no cache (NewSession(nil)) solves every call directly
// and books it as a miss. A nil *Session is valid too: it solves directly
// with mis.ExactCtx and counts nothing, so deep callers (the CONGEST node
// programs) can be handed "no session" without branching.
type Session struct {
	c *Cache // nil = no cache: every solve runs and books a miss
	// ctx is the context bound by WithContext (nil = Background): every
	// Exact call through the session observes it. It exists because the
	// deep solve sites — the CONGEST node programs — receive a session, not
	// a context; binding the run's context to the session threads
	// cancellation through them without widening NodeProgram.
	ctx context.Context
	// progress is the default incumbent observer bound by WithProgress:
	// solves that do not pin their own Options.Progress get it. Like ctx
	// it is set while the session has a single owner and read-only after.
	progress obs.ProgressObserver

	mu    sync.Mutex
	stats Stats
}

// NewSession returns a session over c (nil = no cache).
func NewSession(c *Cache) *Session {
	return &Session{c: c}
}

// WithContext binds ctx to the session and returns it: every subsequent
// Exact call observes the context (cancellation stops in-flight
// branch-and-bound on its batched cadence and returns the incumbent with
// ctx.Err()). Bind before handing the session out — the field is not
// synchronised, so it must be set while the session still has a single
// owner. A nil receiver is returned unchanged.
func (s *Session) WithContext(ctx context.Context) *Session {
	if s != nil {
		s.ctx = ctx
	}
	return s
}

// WithProgress binds a default incumbent observer to the session and
// returns it: every subsequent solve that leaves Options.Progress nil
// fires this observer on each improvement (see mis.Options.Progress —
// in particular, lookups served from cache or collapsed onto another
// caller's in-flight solve deliver no events). Like WithContext, bind
// before handing the session out. A nil receiver is returned unchanged.
func (s *Session) WithProgress(o obs.ProgressObserver) *Session {
	if s != nil {
		s.progress = o
	}
	return s
}

// context resolves the bound context (Background when none).
func (s *Session) context() context.Context {
	if s == nil || s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// Stats returns a snapshot of the session's counters. Entries is always 0:
// occupancy belongs to the cache, not to a view of it.
func (s *Session) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// record applies a counter mutation; safe on a nil session (no-op).
func (s *Session) record(f func(*Stats)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Exact solves through the session: the underlying cache serves or runs the
// solve, the session books the traffic, and the session's bound context
// (WithContext) governs cancellation. On a nil session this is exactly
// mis.Exact.
func (s *Session) Exact(g *graphs.Graph, opts mis.Options) (mis.Solution, error) {
	return s.ExactCtx(s.context(), g, opts)
}

// ExactCtx is Exact under an explicit context, overriding the session's
// bound one for this call.
func (s *Session) ExactCtx(ctx context.Context, g *graphs.Graph, opts mis.Options) (mis.Solution, error) {
	if s == nil {
		return mis.ExactCtx(ctx, g, opts)
	}
	if opts.Progress == nil {
		opts.Progress = s.progress
	}
	if s.c == nil {
		sol, err := mis.ExactCtx(ctx, g, opts)
		s.record(func(st *Stats) {
			st.Misses++
			if err == nil {
				st.StepsSolved += sol.Steps
			}
		})
		return sol, err
	}
	return s.c.exact(ctx, g, opts, s)
}
