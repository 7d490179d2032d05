package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/core"
	"congestlb/internal/fault"
	"congestlb/internal/lbgraph"
)

// TestCtxGoInlineMatchesScheduled pins the two execution modes to the
// same observable results: slot contents and the Gather error.
func TestCtxGoInlineMatchesScheduled(t *testing.T) {
	run := func(sched *Scheduler) ([]int, error) {
		w := NewCtx(nil, nil).WithScheduler(sched)
		results := make([]int, 8)
		for i := 0; i < 8; i++ {
			i := i
			w.Go(func() error {
				results[i] = i * i
				if i == 3 || i == 5 {
					return fmt.Errorf("job %d failed", i)
				}
				return nil
			})
		}
		err := w.Gather()
		return results, err
	}

	inline, inlineErr := run(nil)
	for _, workers := range []int{1, 2, 4} {
		s := NewScheduler(workers)
		sharded, shardedErr := run(s)
		s.Close()
		for i := range inline {
			if inline[i] != sharded[i] {
				t.Fatalf("workers=%d: slot %d = %d, inline %d", workers, i, sharded[i], inline[i])
			}
		}
		if inlineErr == nil || shardedErr == nil || inlineErr.Error() != shardedErr.Error() {
			t.Fatalf("workers=%d: error %v, inline %v", workers, shardedErr, inlineErr)
		}
	}
	// The earliest-submitted failure wins, matching a sequential
	// early-returning loop.
	if inlineErr.Error() != "job 3 failed" {
		t.Fatalf("Gather returned %v, want the earliest failure", inlineErr)
	}
}

// TestSchedulerNestedJobsNoDeadlock is the deadlock-avoidance rule under
// maximum pressure: more gathering jobs than workers, each submitting
// nested instance jobs into the same single-worker pool. Without the
// claim-inline rule this configuration deadlocks immediately.
func TestSchedulerNestedJobsNoDeadlock(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()

	const outer, inner = 6, 10
	var ran atomic.Int64
	waits := make([]func(), outer)
	for o := 0; o < outer; o++ {
		waits[o] = s.Submit(func() {
			w := NewCtx(nil, nil).WithScheduler(s)
			for i := 0; i < inner; i++ {
				w.Go(func() error {
					ran.Add(1)
					return nil
				})
			}
			if err := w.Gather(); err != nil {
				t.Error(err)
			}
		})
	}
	for _, wait := range waits {
		wait()
	}
	if got := ran.Load(); got != outer*inner {
		t.Fatalf("ran %d nested jobs, want %d", got, outer*inner)
	}
}

// TestCtxCancelDrainsQueuedJobs pins the cancellation half of the
// scheduler contract: jobs still queued when the context fires never run
// their bodies — whoever claims them (a pool worker or the gatherer)
// observes the dead context and reports ctx.Err() — and Gather returns
// without deadlock at every pool size, including the single-worker pool
// where the gatherer must claim everything inline.
func TestCtxCancelDrainsQueuedJobs(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := NewScheduler(workers)
			defer s.Close()

			ctx, cancel := context.WithCancel(context.Background())
			// Pin every pool worker on a gate so the cancel provably lands
			// while the real jobs are still queued behind them.
			gate := make(chan struct{})
			started := make(chan struct{}, workers)
			w := NewCtx(nil, nil).WithScheduler(s).WithContext(ctx)
			for i := 0; i < workers; i++ {
				w.Go(func() error {
					started <- struct{}{}
					<-gate
					return nil
				})
			}
			for i := 0; i < workers; i++ {
				<-started
			}
			var ran atomic.Int64
			const queued = 16
			for i := 0; i < queued; i++ {
				w.Go(func() error {
					ran.Add(1)
					return nil
				})
			}
			cancel()
			close(gate)
			err := w.Gather()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Gather = %v, want context.Canceled from a drained job", err)
			}
			if got := ran.Load(); got != 0 {
				t.Fatalf("%d queued job bodies ran after cancellation", got)
			}
		})
	}
}

// TestSchedulerNestedJobsCancelNoDeadlock extends the nested-gather
// deadlock test with cancellation: outer experiment jobs gather nested
// instance jobs on a single-worker pool while the context dies under
// them. Everything must drain — cancelled or completed — with no worker
// stranded.
func TestSchedulerNestedJobsCancelNoDeadlock(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const outer, inner = 6, 10
	var cancelled, completed atomic.Int64
	waits := make([]func(), outer)
	for o := 0; o < outer; o++ {
		o := o
		waits[o] = s.Submit(func() {
			if o == 2 {
				// Cancel from inside the pool, mid-backlog: the remaining
				// outer jobs' nested work must drain as cancelled.
				cancel()
			}
			w := NewCtx(nil, nil).WithScheduler(s).WithContext(ctx)
			for i := 0; i < inner; i++ {
				w.Go(func() error {
					completed.Add(1)
					return nil
				})
			}
			if err := w.Gather(); err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("gather error %v, want context.Canceled", err)
				}
				cancelled.Add(1)
			}
		})
	}
	for _, wait := range waits {
		wait()
	}
	if cancelled.Load() == 0 {
		t.Fatal("cancellation never observed by any nested gather")
	}
	if completed.Load()+cancelled.Load()*inner < outer*inner-inner {
		t.Fatalf("work lost: %d completed, %d gathers cancelled", completed.Load(), cancelled.Load())
	}
}

// TestCtxGatherReusable pins Gather's reset semantics: a second batch of
// jobs after a Gather is independent of the first.
func TestCtxGatherReusable(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	w := NewCtx(nil, nil).WithScheduler(s)

	w.Go(func() error { return errors.New("first batch") })
	if err := w.Gather(); err == nil {
		t.Fatal("first batch error lost")
	}
	w.Go(func() error { return nil })
	if err := w.Gather(); err != nil {
		t.Fatalf("second batch inherited the first batch's error: %v", err)
	}
	if w.InstanceJobs() != 2 {
		t.Fatalf("InstanceJobs = %d, want 2", w.InstanceJobs())
	}
}

// TestCtxGoBatchMatchesPerPointJobs pins per-point submission: a sweep of
// simulations submitted as one w.Go job per point (the shape runScaling
// uses) gives every point the report a solo core.Simulate gives it, at any
// pool size, and books one instance job per point.
func TestCtxGoBatchMatchesPerPointJobs(t *testing.T) {
	p := lbgraph.Params{T: 2, Alpha: 1, Ell: 3}
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	inputs := make([]bitvec.Inputs, 3)
	for i := range inputs {
		if inputs[i], _, err = bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rng); err != nil {
			t.Fatal(err)
		}
	}

	solo := make([]core.SimulationReport, len(inputs))
	w := NewCtx(nil, nil)
	for i, in := range inputs {
		inst, err := w.Build(l, in)
		if err != nil {
			t.Fatal(err)
		}
		solo[i], err = core.Simulate(context.Background(), l, in, inst, core.CollectProgramsWith(w.Solve), core.WitnessOpt, congest.Config{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{0, 1, 2} {
		var sched *Scheduler
		if workers > 0 {
			sched = NewScheduler(workers)
		}
		w := NewCtx(nil, nil).WithScheduler(sched)
		reports := make([]core.SimulationReport, len(inputs))
		for i, in := range inputs {
			w.Go(func() error {
				inst, err := w.Build(l, in)
				if err != nil {
					return err
				}
				reports[i], err = core.Simulate(w.Context(), l, in, inst,
					core.CollectProgramsWith(w.Solve), core.WitnessOpt, congest.Config{Seed: 11})
				return err
			})
		}
		if err := w.Gather(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sched != nil {
			sched.Close()
		}
		for i := range inputs {
			if reports[i] != solo[i] {
				t.Fatalf("workers=%d point %d diverged:\njob  %+v\nsolo %+v", workers, i, reports[i], solo[i])
			}
		}
		if w.InstanceJobs() != 3 {
			t.Fatalf("workers=%d: %d instance jobs, want 3", workers, w.InstanceJobs())
		}
	}
}

// TestCtxGatherCountsOnlyRecoveredPanics: PanicsRecovered counts the jobs
// whose run recovered a panic, inline and pooled alike. A job that returns
// a *fault.PanicError without panicking — a degraded solve surfacing its
// error — fails Gather but is no recovered panic.
func TestCtxGatherCountsOnlyRecoveredPanics(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		var sched *Scheduler
		if workers > 0 {
			sched = NewScheduler(workers)
		}
		returned := NewCtx(nil, nil).WithScheduler(sched)
		returned.Go(func() error { return fault.NewPanicError("solver", "degraded") })
		if err := returned.Gather(); err == nil {
			t.Fatalf("workers=%d: returned PanicError lost", workers)
		}
		panicked := NewCtx(nil, nil).WithScheduler(sched)
		panicked.Go(func() error { panic("boom") })
		err := panicked.Gather()
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: panicking job returned %v, want a *fault.PanicError", workers, err)
		}
		if sched != nil {
			sched.Close()
		}
		if got := returned.PanicsRecovered(); got != 0 {
			t.Fatalf("workers=%d: returned PanicError counted as %d recovered panic(s), want 0", workers, got)
		}
		if got := panicked.PanicsRecovered(); got != 1 {
			t.Fatalf("workers=%d: panicking job counted as %d recovered panic(s), want 1", workers, got)
		}
	}
}

// TestCtxBuildsCountExact: Builds counts every construction made through
// Build, BuildFixed and BuildBase, including the ones pool workers make
// concurrently.
func TestCtxBuildsCountExact(t *testing.T) {
	p := lbgraph.Params{T: 2, Alpha: 1, Ell: 3}
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(4)
	defer sched.Close()
	w := NewCtx(nil, nil).WithScheduler(sched)
	for i := 0; i < 64; i++ {
		w.Go(func() error {
			_, err := w.Build(l, in)
			return err
		})
	}
	if _, err := w.BuildFixed(l); err != nil {
		t.Fatal(err)
	}
	if _, err := w.BuildBase(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Gather(); err != nil {
		t.Fatal(err)
	}
	if got := w.Builds(); got != 66 {
		t.Fatalf("Builds() = %d, want 66", got)
	}
}
