package experiments

import (
	"testing"

	"congestlb/internal/obs"
)

// TestSchedulerQueueDepthGauge pins the scheduler's observability
// contract: the queue-depth gauge counts exactly the submitted jobs not
// yet claimed — rising as a Ctx fans out nested Go jobs while the pool
// is busy, draining to zero once everything ran — and the jobs counter
// and wait histogram see every submission.
func TestSchedulerQueueDepthGauge(t *testing.T) {
	reg := obs.NewRegistry()
	sched := NewScheduler(1)
	sched.SetRegistry(reg)
	depth := reg.Gauge(obs.MSchedQueueDepth)

	// Park the single worker inside a job, so everything submitted next
	// is guaranteed to sit in the queue when we read the gauge.
	started := make(chan struct{})
	block := make(chan struct{})
	release := sched.Submit(func() { close(started); <-block })
	<-started

	const n = 6
	w := NewCtx(nil, nil).WithScheduler(sched)
	for i := 0; i < n; i++ {
		w.Go(func() error { return nil })
	}
	if got := depth.Value(); got != n {
		t.Fatalf("queue depth with %d queued jobs = %d", n, got)
	}

	close(block)
	release()
	if err := w.Gather(); err != nil {
		t.Fatal(err)
	}
	// Gather may have claimed jobs inline, leaving carcasses for the
	// worker to pop; those left the gauge at their claim, so after Close
	// the gauge must be back at zero.
	sched.Close()
	if got := depth.Value(); got != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", got)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(obs.MSchedJobs); got != n+1 {
		t.Fatalf("jobs counter = %d, want %d", got, n+1)
	}
	waits := snap.Histograms[obs.MSchedJobWaitNS]
	if waits.Count != n+1 {
		t.Fatalf("wait histogram saw %d claims, want %d", waits.Count, n+1)
	}
}

// TestSchedulerQueueDepthCountsUnclaimed: jobs that their gatherer
// claims inline leave the queue depth at the claim, in both the gauge
// and QueueDepth, though their queue carcasses wait for a worker.
func TestSchedulerQueueDepthCountsUnclaimed(t *testing.T) {
	reg := obs.NewRegistry()
	sched := NewScheduler(1)
	defer sched.Close()
	sched.SetRegistry(reg)
	depth := reg.Gauge(obs.MSchedQueueDepth)

	// Park the single worker, so the gatherer claims every job inline.
	started := make(chan struct{})
	block := make(chan struct{})
	release := sched.Submit(func() { close(started); <-block })
	defer release()
	defer close(block)
	<-started

	const n = 4
	w := NewCtx(nil, nil).WithScheduler(sched)
	for i := 0; i < n; i++ {
		w.Go(func() error { return nil })
	}
	if got, q := depth.Value(), sched.QueueDepth(); got != n || q != n {
		t.Fatalf("with %d queued jobs: gauge %d, QueueDepth %d", n, got, q)
	}
	if err := w.Gather(); err != nil {
		t.Fatal(err)
	}
	if got, q := depth.Value(), sched.QueueDepth(); got != 0 || q != 0 {
		t.Fatalf("after Gather ran every job inline: gauge %d, QueueDepth %d, want 0 and 0", got, q)
	}
}

// TestSchedulerRegistryDetach: SetRegistry(nil) stops recording without
// disturbing jobs already in flight.
func TestSchedulerRegistryDetach(t *testing.T) {
	reg := obs.NewRegistry()
	sched := NewScheduler(2)
	sched.SetRegistry(reg)
	sched.Submit(func() {})()
	sched.SetRegistry(nil)
	sched.Submit(func() {})()
	sched.Close()
	if got := reg.Snapshot().Counter(obs.MSchedJobs); got != 1 {
		t.Fatalf("jobs counter after detach = %d, want 1", got)
	}
}
