package experiments

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"congestlb/internal/bitvec"
	"congestlb/internal/core"
	"congestlb/internal/fault"
	"congestlb/internal/graphs"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis/cache"
	"congestlb/internal/obs"
)

// This file is the execution machinery handed to every experiment: the
// Ctx (report writer, attributed solve session, construction count) and
// the intra-experiment job scheduler behind Ctx.Go/Ctx.Gather.
//
// # Intra-experiment sharding
//
// Experiment bodies decompose into independent per-instance jobs — one
// sweep point, one promise case, one ablation variant — following the
// per-instance decomposition of the paper's two-party reduction framing.
// The contract that keeps markdown reports byte-identical to a sequential
// run at any pool size:
//
//   - Input generation stays sequential. Anything consuming the
//     experiment's rand.Rand (or other ordered state) runs in the
//     submission loop on the experiment goroutine, so the RNG stream is
//     exactly the sequential one. Only the heavy, deterministic work —
//     build, simulate, solve — goes inside the job closure.
//   - Jobs never touch the Ctx writer, the shared table or the check
//     accumulator. Each job fills its own result slot (a captured
//     variable or slice element); after Gather the experiment flushes the
//     slots in sweep order.
//   - Gather returns the error of the earliest-submitted failing job —
//     the same error a sequential early-returning loop reports — so a
//     failing experiment renders the identical **FAILED** line.
//
// # Deadlock avoidance for nested jobs
//
// Experiments themselves run as jobs on the same Scheduler pool (the
// runner submits one job per experiment), so a naive "submit and block"
// Gather could strand every worker waiting on queued jobs no worker is
// free to run. The rule that makes the nesting safe: a gatherer never
// blocks on a job that is still queued — it claims the job (atomic
// queued→running transition) and runs it inline on its own goroutine,
// and only ever blocks on jobs some other worker is actively executing.
// Blocking therefore always waits on a goroutine that is making progress
// (instance jobs never gather further), so the pool cannot deadlock at
// any worker count, including one.

// jobQueued/jobRunning/jobDone are the instanceJob lifecycle states.
const (
	jobQueued int32 = iota
	jobRunning
	jobDone
)

// instanceJob is one unit of intra-experiment (or experiment-level) work
// submitted to a Scheduler.
type instanceJob struct {
	state atomic.Int32
	fn    func() error
	err   error
	// panicked records that run recovered a panic from fn: the event
	// Gather books as a recovered panic (a job that merely returns a
	// *fault.PanicError, such as a degraded solve, is not one).
	panicked bool
	done     chan struct{}
	// unclaimed is the count of its scheduler's submitted, unclaimed
	// jobs, which the winner of the claim decrements.
	unclaimed *atomic.Int64
	// enqNS/om carry the scheduler's observability handles when a
	// registry is attached (SetRegistry): enqNS is the enqueue instant,
	// and whoever wins the claim books the enqueue→claim wait. Both stay
	// zero-valued — and cost nothing — without a registry.
	enqNS int64
	om    *schedMetrics
}

// claim runs the job if it is still queued, transitioning it to done.
// Exactly one caller — a pool worker or the job's gatherer — wins the
// queued→running race.
func (j *instanceJob) claim() bool {
	if !j.state.CompareAndSwap(jobQueued, jobRunning) {
		return false
	}
	// The job leaves the queue depth at claim, not at queue pop: a
	// gatherer-claimed job stops waiting the moment the claim wins, even
	// though its queue carcass is popped (and discarded) by a worker
	// later.
	j.unclaimed.Add(-1)
	if j.om != nil {
		j.om.depth.Add(-1)
		j.om.wait.Observe(time.Now().UnixNano() - j.enqNS)
	}
	j.err = j.run()
	j.state.Store(jobDone)
	close(j.done)
	return true
}

// run executes the job's function with panic containment: a panicking
// job fails with a *fault.PanicError instead of killing the pool worker
// (or gatherer) that happened to claim it. This is the scheduler's half
// of the Lab-wide fault-isolation contract — a tenant's panic must never
// take down the shared pool.
func (j *instanceJob) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.NewPanicError("job", r)
			j.panicked = true
			if j.om != nil {
				j.om.panics.Inc()
			}
		}
	}()
	fault.Stall(fault.WorkerStall, "sched")
	return j.fn()
}

// Scheduler is the shared worker pool that executes experiment-level jobs
// (the runner's) and per-instance jobs (Ctx.Go's). Instance jobs live on
// their own queue, drained before experiment-level jobs: a freed worker
// finishes the sweeps of experiments already in flight before opening a
// new experiment, so intra-experiment parallelism materialises even while
// an experiment backlog exists (with one FIFO the backlog would starve
// every sweep until fewer experiments than workers remained). See the
// file comment for the nesting/deadlock-avoidance rule.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	inst    []*instanceJob // per-instance jobs: drained first
	exp     []*instanceJob // experiment-level jobs
	closed  bool
	workers int
	wg      sync.WaitGroup
	// unclaimed counts submitted jobs that neither a worker nor an
	// inline-claiming gatherer has started: QueueDepth.
	unclaimed atomic.Int64
	// om holds the observability handles attached by SetRegistry.
	om atomic.Pointer[schedMetrics]
}

// schedMetrics is the scheduler's resolved registry handle set: the
// queue-depth gauge moves with Scheduler.QueueDepth (up at submission,
// down when the claim is won), the jobs counter counts every submission,
// and the wait histogram records enqueue→claim latency — the admission
// signal the planned congestlbd service needs.
type schedMetrics struct {
	depth  *obs.Gauge
	jobs   *obs.Counter
	wait   *obs.Histogram
	panics *obs.Counter
}

// SetRegistry attaches (or with nil detaches) an observability
// registry. Jobs already queued keep their old handles (or none);
// attach before submitting, as the Lab does at run start.
func (s *Scheduler) SetRegistry(r *obs.Registry) {
	if r == nil {
		s.om.Store(nil)
		return
	}
	s.om.Store(&schedMetrics{
		depth:  r.Gauge(obs.MSchedQueueDepth),
		jobs:   r.Counter(obs.MSchedJobs),
		wait:   r.Histogram(obs.MSchedJobWaitNS),
		panics: r.Counter(obs.MSchedJobPanics),
	})
}

// NewScheduler starts a pool of the given size (values < 1 mean 1).
// Callers must Close it to stop the workers.
func NewScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{workers: workers}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers reports the pool size the scheduler was started with.
func (s *Scheduler) Workers() int { return s.workers }

// QueueDepth reports the number of submitted jobs that no worker (or
// inline-claiming gatherer) has started yet. Claimed carcasses still
// sitting in a queue slot are excluded — the count is work actually
// waiting, which is what admission control wants. The MSchedQueueDepth
// gauge reads the same count.
func (s *Scheduler) QueueDepth() int { return int(s.unclaimed.Load()) }

// worker drains the queue until the scheduler closes. Jobs claimed inline
// by their gatherer are skipped — the atomic claim makes the race benign.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		j.claim()
	}
}

// next pops the next job — oldest instance job first, then oldest
// experiment job — blocking while both queues are empty and the
// scheduler is open. nil means closed.
func (s *Scheduler) next() *instanceJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.inst) > 0 {
			j := s.inst[0]
			s.inst[0] = nil
			s.inst = s.inst[1:]
			return j
		}
		if len(s.exp) > 0 {
			j := s.exp[0]
			s.exp[0] = nil
			s.exp = s.exp[1:]
			return j
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// submit enqueues an instance job and wakes a worker. Like Submit, it
// panics on a closed pool: the job could only ever run through its
// gatherer's inline claim, and an entry point that half-works after Close
// hides lifecycle bugs.
func (s *Scheduler) submit(j *instanceJob) {
	s.enqueue(&s.inst, j, "experiments: Ctx.Go on closed Scheduler")
}

// enqueue appends j to queue q, counts it as unclaimed and wakes a
// worker; on a closed pool it panics with msg instead.
func (s *Scheduler) enqueue(q *[]*instanceJob, j *instanceJob, msg string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic(msg)
	}
	j.unclaimed = &s.unclaimed
	s.unclaimed.Add(1)
	if m := s.om.Load(); m != nil {
		j.om, j.enqNS = m, time.Now().UnixNano()
		m.jobs.Inc()
		m.depth.Add(1)
	}
	*q = append(*q, j)
	s.mu.Unlock()
	s.cond.Signal()
}

// Submit enqueues fn as a pool job and returns a function that blocks
// until it has run. This is the runner's experiment-level entry point; the
// returned wait must not be called from a pool worker (experiment-level
// jobs are waited on by the runner's flush goroutine, which is outside
// the pool — instance-level jobs use Ctx.Gather, which helps instead of
// blocking).
func (s *Scheduler) Submit(fn func()) (wait func()) {
	j := &instanceJob{fn: func() error { fn(); return nil }, done: make(chan struct{})}
	// Enforce the documented contract loudly: a closed pool's workers
	// have exited, so the job could never run and the returned wait would
	// block forever — a silent deadlock is strictly worse.
	s.enqueue(&s.exp, j, "experiments: Submit on closed Scheduler")
	return func() { <-j.done }
}

// Close stops the workers after the queue drains. Submitted jobs all
// complete; submitting after Close panics.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Ctx is the execution context handed to every experiment run: the report
// writer (embedded, so a *Ctx is written to directly), the solve session
// through which the experiment's exact MaxIS work is routed, the count of
// its lower-bound graph constructions (Build, BuildFixed, BuildBase), and
// the scheduler behind Ctx.Go/Ctx.Gather. The session and the count book
// only what this experiment did — which is what makes the runner's
// per-experiment envelope attribution exact at any -jobs count.
type Ctx struct {
	io.Writer
	// Solve memoises and attributes this run's exact solves; never nil
	// when built by NewCtx.
	Solve *cache.Session
	// builds counts the constructions made through Build, BuildFixed and
	// BuildBase; jobs call them concurrently.
	builds atomic.Int64

	// sched executes Go's jobs; nil runs them inline at submission (the
	// sequential mode of experiments.RunAll and direct Run calls).
	sched   *Scheduler
	pending []*instanceJob
	jobs    int64
	// panics counts gathered jobs whose run recovered a panic — the
	// per-experiment attribution behind the envelope's panics_recovered.
	panics int64
	// ctx is the run's cancellation signal (WithContext; nil = Background).
	// Go-submitted jobs check it before running, so on cancellation the
	// queued backlog drains as cancelled instead of executing; experiments
	// thread it into their simulations via Context().
	ctx context.Context
}

// NewCtx builds an experiment context. A nil writer discards the report;
// a nil solve session gets a fresh one over a fresh solve cache. Without a
// scheduler (WithScheduler), Go runs jobs inline — exactly the sequential
// pipeline.
func NewCtx(w io.Writer, solve *cache.Session) *Ctx {
	if w == nil {
		w = io.Discard
	}
	if solve == nil {
		solve = cache.NewSession(cache.New(0))
	}
	return &Ctx{Writer: w, Solve: solve}
}

// WithScheduler routes this context's Go jobs through the given pool and
// returns the context. A nil scheduler keeps the inline mode.
func (w *Ctx) WithScheduler(s *Scheduler) *Ctx {
	w.sched = s
	return w
}

// WithContext binds the run's context.Context: queued Go jobs drain as
// cancelled once it fires, and experiments pass Context() into their
// simulations and solves. Set it before the experiment starts (not
// synchronised). A nil ctx keeps Background.
func (w *Ctx) WithContext(ctx context.Context) *Ctx {
	w.ctx = ctx
	return w
}

// Build constructs fam's instance for in from scratch and counts the
// construction. Safe to call from Go jobs.
func (w *Ctx) Build(fam core.Family, in bitvec.Inputs) (core.Instance, error) {
	w.builds.Add(1)
	return fam.Build(in)
}

// BuildFixed constructs fam's input-free fixed graph and counts the
// construction. Safe to call from Go jobs.
func (w *Ctx) BuildFixed(fam interface{ BuildFixed() (core.Instance, error) }) (core.Instance, error) {
	w.builds.Add(1)
	return fam.BuildFixed()
}

// BuildBase constructs the base graph H of p and counts the construction.
// Safe to call from Go jobs.
func (w *Ctx) BuildBase(p lbgraph.Params) (*graphs.Graph, error) {
	w.builds.Add(1)
	return lbgraph.BuildBase(p)
}

// Builds reports how many constructions Build, BuildFixed and BuildBase
// have made over the context's lifetime — the count the runner records in
// the envelope.
func (w *Ctx) Builds() int64 { return w.builds.Load() }

// Context returns the run's cancellation context (Background when none was
// bound). Experiments pass it to core.Simulate, so a cancelled run stops
// between CONGEST rounds, not only between jobs.
func (w *Ctx) Context() context.Context {
	if w.ctx == nil {
		return context.Background()
	}
	return w.ctx
}

// Go submits one per-instance job. With a scheduler the job runs on the
// shared pool; without one it runs inline immediately, making the
// sequential and sharded paths the same code. fn must not write to the
// Ctx or mutate experiment state shared with other jobs — it computes
// into its own result slot, which the experiment reads after Gather.
// Go/Gather are experiment-goroutine-only: jobs must not call them.
//
// With a bound context (WithContext), every job re-checks it at claim
// time: jobs still queued when the context fires run nothing and report
// ctx.Err() — the queued backlog drains as cancelled, whoever claims it.
func (w *Ctx) Go(fn func() error) {
	w.jobs++
	run := fn
	if ctx := w.ctx; ctx != nil {
		run = func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			// One span per instance job, parented to the experiment span the
			// runner opened in this ctx. Without a registry obs.Begin is a
			// single context lookup.
			_, sp := obs.Begin(ctx, "job")
			defer sp.End()
			return fn()
		}
	}
	if w.sched == nil {
		// Inline mode runs through the same containment wrapper as the
		// pool path, so a panicking job produces the identical
		// *fault.PanicError (and FAILED report line) at any -jobs count.
		j := &instanceJob{fn: run}
		j.err = j.run()
		j.state.Store(jobDone)
		w.pending = append(w.pending, j)
		return
	}
	j := &instanceJob{fn: run, done: make(chan struct{})}
	w.pending = append(w.pending, j)
	w.sched.submit(j)
}

// Gather waits for every outstanding Go job and returns the error of the
// earliest-submitted failing one (nil if all succeeded) — matching the
// error a sequential early-returning loop reports, which keeps failure
// output byte-identical. It first claims every still-queued job of this
// context and runs it inline (the deadlock-avoidance rule: never block
// on work no worker owns), and only then blocks on the jobs other
// workers are executing — so the gatherer's own work overlaps with
// theirs instead of serialising behind the first running job.
func (w *Ctx) Gather() error {
	if w.sched != nil {
		for _, j := range w.pending {
			j.claim()
		}
		for _, j := range w.pending {
			<-j.done // immediate for everything claimed above
		}
	}
	var first error
	for _, j := range w.pending {
		if j.panicked {
			w.panics++
		}
		if j.err != nil && first == nil {
			first = j.err
		}
	}
	w.pending = w.pending[:0]
	return first
}

// PanicsRecovered reports how many of this context's gathered jobs
// panicked (and were recovered into a *fault.PanicError) over the
// context's lifetime — the same events as the sched_job_panics counter.
// A job that returns a *fault.PanicError without panicking, such as one
// whose solve degraded, is not counted. The runner adds it to the
// experiment record's PanicsRecovered.
func (w *Ctx) PanicsRecovered() int64 { return w.panics }

// InstanceJobs reports how many jobs Go has submitted over the context's
// lifetime — the per-instance count the runner records in the envelope.
func (w *Ctx) InstanceJobs() int64 { return w.jobs }
