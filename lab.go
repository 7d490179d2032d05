package congestlb

// Lab is the library's service handle: the one path to its solve cache
// and experiment pool. Each Lab owns its own exact-solve cache (with an
// optional persistent disk tier) and its own experiment worker pool — two
// Labs in one process share nothing, and nothing in the process is shared
// by default, so a server can host isolated tenants, A/B configurations
// or concurrent workloads without any cross-talk. Every long-running
// operation takes a context.Context that cancels it cooperatively. See
// docs/api.md for the lifecycle, the full option set, the migration
// tables from the earlier major versions and the isolation guarantees.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"

	"congestlb/internal/core"
	"congestlb/internal/experiments"
	"congestlb/internal/mis/cache"
	"congestlb/internal/obs"
	"congestlb/internal/runner"
)

// ProgressEvent is one incumbent improvement streamed from an exact
// solve (see WithObserver and Lab.WatchSolve).
type ProgressEvent = obs.ProgressEvent

// ProgressObserver receives incumbent improvements; ObserverFunc adapts
// a plain function to it.
type ProgressObserver = obs.ProgressObserver
type ObserverFunc = obs.ObserverFunc

// MetricsSnapshot is a point-in-time copy of a Lab's metrics registry
// (Lab.Metrics); SpanStat summarises completed spans by name. Both also
// appear in the v6 experiment envelope.
type MetricsSnapshot = obs.Snapshot

// SpanStat aggregates completed spans sharing a name.
type SpanStat = obs.SpanStat

// Experiment is one registered reproduction experiment (see RunExperiments
// and cmd/experiments).
type Experiment = experiments.Experiment

// ExperimentEnvelope is the structured JSON result of one RunExperiments
// call (schema v12): one record per experiment, each with its solve
// session's cache block, plus run-level totals summed from the records.
type ExperimentEnvelope = runner.Envelope

// ExperimentResult is one experiment's record in an ExperimentEnvelope.
type ExperimentResult = runner.ExperimentResult

// AllExperiments returns every registered experiment in ID order.
func AllExperiments() []Experiment { return experiments.All() }

// ErrClosed is returned by Lab operations that require an open Lab —
// RunExperiments, SetSolveCacheDir, and any Close after the first. Pure
// solve/simulate methods keep working on a closed Lab and never return
// it.
var ErrClosed = errors.New("congestlb: Lab is closed")

// Lab is a self-contained instance of the library's services. The zero
// value is not usable; create Labs with New.
//
// Isolation guarantees: a Lab owns a private solve cache, private disk
// tier (if configured) and private scheduler pool. No operation on one
// Lab can observe or mutate another Lab's state; in particular two Labs
// with different solve-cache directories never cross-populate. The only
// state Labs inherently share is the process itself (GOMAXPROCS, memory).
//
// Every potentially long-running method takes a context.Context:
// cancellation stops CONGEST round loops at round boundaries, queued
// experiment/instance jobs before they start, and in-flight
// branch-and-bound on the solver's batched step cadence — returning the
// best incumbent found together with ctx.Err(), exactly like a step-budget
// exhaustion, so cancellation never produces a torn result. Graph
// construction is the one stage that is not interruptible mid-build: a
// dead context is observed before a build starts, never inside one.
//
// A Lab is safe for concurrent use. Close releases its worker pool and
// detaches its disk tier; a closed Lab rejects RunExperiments but its
// pure solve/simulate methods keep working.
type Lab struct {
	// solve is never nil.
	solve *cache.Cache

	// reg is the Lab's metrics registry (nil unless WithMetrics): the
	// solve cache, scheduler, engines and spans all record into
	// it. progress is the observer every solve session fires on incumbent
	// improvements — the WithObserver callback teed with the registry's
	// incumbent bookkeeping; nil when neither is configured, which is the
	// branch-cheap hot-path default. Both are set at New and never
	// mutated, so they are read without the mutex.
	reg      *obs.Registry
	progress obs.ProgressObserver

	mu     sync.Mutex
	idle   *sync.Cond // signalled when active drops to zero
	jobs   int
	sched  *experiments.Scheduler
	active int // in-flight RunExperiments calls; Close waits for zero
	closed bool
	// closeDone is non-nil once a Close has taken ownership of the
	// teardown and closed when that teardown finished — every other Close
	// call blocks on it, so no caller returns before the pool is drained.
	closeDone chan struct{}
}

// labConfig accumulates functional options.
type labConfig struct {
	jobs       int
	memEntries int
	cacheDir   string
	metrics    bool
	observer   obs.ProgressObserver
	sharedTier *cache.SharedTier
}

// Option configures a Lab at construction time.
type Option func(*labConfig)

// WithSolverWorkers is accepted and ignored: the exact solver runs one
// search per solve.
//
// Deprecated: there is no worker count left to set. This option has no
// effect and will be removed.
func WithSolverWorkers(int) Option {
	return func(*labConfig) {}
}

// WithSolveCacheDir attaches a persistent on-disk tier to the Lab's solve
// cache: content-identical solves in later processes (or other Labs
// pointed at the same directory) are served from disk instead of re-running
// branch-and-bound. The directory is created if missing; Close detaches it.
func WithSolveCacheDir(dir string) Option {
	return func(c *labConfig) { c.cacheDir = dir }
}

// WithMemoryCacheSize bounds the Lab's in-memory solve cache to the given
// number of entries (0 = the package default). Solutions are small, so the
// default comfortably covers whole experiment suites.
func WithMemoryCacheSize(entries int) Option {
	return func(c *labConfig) { c.memEntries = entries }
}

// SharedSolveTier is a content-addressed store of completed solve
// results shared by several Labs: each Lab's private cache consults it
// before booking a miss, so an identical solve any sibling Lab already
// paid for is served with zero branch-and-bound steps (booked as a
// shared hit, see SolveCacheStats.SharedHits). Private caches stay
// private — the tier holds only finished, error-free solutions, never
// in-flight state, so one Lab's cancellation or failure semantics cannot
// leak into another's. This is the cross-tenant dedup layer of the
// congestlbd service.
type SharedSolveTier = cache.SharedTier

// SharedSolveTierStats is a snapshot of a SharedSolveTier's counters.
type SharedSolveTierStats = cache.SharedTierStats

// NewSharedSolveTier returns an empty cross-Lab solve tier bounded to
// the given number of solutions (0 = the package default). Attach it to
// Labs at construction with WithSharedSolveTier.
func NewSharedSolveTier(entries int) *SharedSolveTier {
	return cache.NewSharedTier(entries)
}

// WithSharedSolveTier places the Lab's private solve cache on top of a
// cross-Lab read-through tier (see SharedSolveTier). Multiple Labs may
// share one tier; nil means no tier (the default).
func WithSharedSolveTier(t *SharedSolveTier) Option {
	return func(c *labConfig) { c.sharedTier = t }
}

// WithJobs sets the Lab's experiment worker-pool size used by
// RunExperiments (0 = GOMAXPROCS). The pool is created lazily on first use
// and lives until Close.
func WithJobs(n int) Option {
	return func(c *labConfig) {
		if n < 0 {
			n = 0
		}
		c.jobs = n
	}
}

// WithMetrics attaches a per-Lab metrics registry (off by default).
// When on, the Lab's solve cache, its scheduler, the CONGEST
// engines and the exact solvers record counters, gauges, bounded
// histograms and spans into it; Lab.Metrics snapshots it,
// Lab.MetricsHandler serves it over HTTP, and RunExperiments embeds the
// per-run delta in the envelope (schema v6). Observability is
// non-perturbing: reports, solutions and determinism guarantees are
// byte-identical with it on or off. When off (the default) every
// recording site short-circuits on a nil handle, so the hot paths pay
// nothing. See docs/observability.md.
func WithMetrics(on bool) Option {
	return func(c *labConfig) { c.metrics = on }
}

// WithObserver streams every incumbent improvement of every exact solve
// the Lab runs (strict improvements only) to o. The observer must be safe for concurrent use and return
// quickly — it runs inline in the solver's search loop. For a
// per-solve, strictly-monotone stream with a termination marker, use
// Lab.WatchSolve instead.
func WithObserver(o ProgressObserver) Option {
	return func(c *labConfig) { c.observer = o }
}

// New creates an isolated Lab from the given options. The returned Lab
// shares no mutable state with any other Lab; callers that use
// RunExperiments should Close it when done to release its worker pool.
func New(opts ...Option) (*Lab, error) {
	var cfg labConfig
	for _, o := range opts {
		o(&cfg)
	}
	l := &Lab{
		solve: cache.New(cfg.memEntries),
		jobs:  cfg.jobs,
	}
	if cfg.metrics {
		l.reg = obs.NewRegistry()
		l.solve.SetRegistry(l.reg)
	}
	if cfg.sharedTier != nil {
		l.solve.SetSharedTier(cfg.sharedTier)
	}
	l.progress = obs.Tee(cfg.observer, l.reg.IncumbentObserver())
	if cfg.cacheDir != "" {
		if err := l.solve.SetDir(cfg.cacheDir); err != nil {
			return nil, fmt.Errorf("congestlb: solve cache dir: %w", err)
		}
	}
	return l, nil
}

// solveSession builds a ctx-bound attributed session over the Lab's solve
// cache. On an observed Lab the context carries the registry (so solves
// open spans and record latency) and the session's solves fire the Lab's
// progress observer.
func (l *Lab) solveSession(ctx context.Context) *cache.Session {
	if l.reg != nil {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx = obs.NewContext(ctx, l.reg)
	}
	s := l.NewSolveSession().WithContext(ctx)
	if l.progress != nil {
		s = s.WithProgress(l.progress)
	}
	return s
}

// SetSolveCacheDir attaches (or, with "", detaches) the persistent disk
// tier of this Lab's solve cache; only this Lab's solves are affected. A
// closed Lab refuses re-attachment — Close's detach is final, so a caller
// may delete the directory after Close returns. The closed check and the
// attach happen under one hold of the Lab's lock, and Close marks the Lab
// closed under the same lock before it detaches, so an attach can never
// land after Close's detach.
func (l *Lab) SetSolveCacheDir(dir string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.solve.SetDir(dir)
}

// SolveCacheDir reports the Lab's attached disk-tier directory ("" when
// none).
func (l *Lab) SolveCacheDir() string { return l.solve.DiskDir() }

// SolveCacheStats snapshots the Lab's solve-cache counters.
func (l *Lab) SolveCacheStats() SolveCacheStats { return l.solve.Stats() }

// Metrics snapshots the Lab's metrics registry: every counter, gauge
// and histogram its solve cache, scheduler, engines and solvers have
// recorded so far. On a Lab without WithMetrics the snapshot is empty.
// Values are cumulative over the Lab's lifetime; diff two snapshots
// (MetricsSnapshot.DeltaSince) to scope a window.
func (l *Lab) Metrics() MetricsSnapshot { return l.reg.Snapshot() }

// SpanStats summarises the spans the Lab has completed since the
// beginning of its lifetime, by name (nil without WithMetrics).
func (l *Lab) SpanStats() []SpanStat { return l.reg.SpanStatsSince(0) }

// MetricsHandler returns an HTTP handler exposing the Lab's registry —
// Prometheus text at /metrics, JSON snapshots at /metrics.json and
// /spans.json, and the pprof profiles under /debug/pprof/ — or nil on a
// Lab without WithMetrics. cmd/experiments serves it via -metrics-addr.
func (l *Lab) MetricsHandler() http.Handler { return obs.Handler(l.reg) }

// NewSolveSession returns an attributed view of the Lab's solve cache that
// counts exactly the traffic routed through it.
func (l *Lab) NewSolveSession() *SolveSession {
	return cache.NewSession(l.solve)
}

// BuildInstance is the package-level BuildInstance: the Lab holds no
// construction state.
//
// Deprecated: call BuildInstance. This method will be removed.
func (l *Lab) BuildInstance(fam Family, in Inputs) (Instance, error) { return BuildInstance(fam, in) }

// RunReduction executes the Theorem 5 simulation with the standard
// gossip-and-solve-exactly CONGEST algorithm through this Lab's solve
// cache: it builds G_x̄, runs the algorithm, charges every cut-crossing
// message to a blackboard, decides promise pairwise disjointness via the
// gap predicate and reports the full accounting. Cancelling ctx stops the
// round loop at a round boundary (or an in-flight local solve on its step
// cadence) and returns the context's error.
func (l *Lab) RunReduction(ctx context.Context, fam Family, in Inputs, cfg CongestConfig) (SimulationReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return SimulationReport{}, err
	}
	inst, err := fam.Build(in)
	if err != nil {
		return SimulationReport{}, fmt.Errorf("core: build: %w", err)
	}
	sess := l.solveSession(ctx)
	report, err := core.Simulate(ctx, fam, in, inst, core.GossipProgramsWith(sess), core.GossipOpt, cfg)
	if err != nil {
		return report, err
	}
	// Core leaves the report's cache counters zero (see
	// SimulationReport); the per-call session counted exactly this run's
	// lookups.
	st := sess.Stats()
	report.SolveCacheHits, report.SolveCacheMisses = st.Hits, st.Misses
	return report, nil
}

// Simulate is RunReduction with a caller-chosen CONGEST algorithm and
// output interpretation. The instance is built from scratch; whether the
// *solves* inside the node programs go through the Lab's solve cache is
// up to the factory, since the Lab cannot reach inside it. Factories
// whose programs solve MaxIS should route those solves through a session
// from NewSolveSession, bound to ctx via SolveSession.WithContext (as
// core.GossipProgramsWith/CollectProgramsWith accept) — a session-less
// factory such as core.GossipPrograms solves on a cache of its own,
// outside this Lab's counters and cancellation.
//
// The report's SolveCacheHits/Misses are zero: the Lab cannot see the
// factory's session. Callers wanting the counts read Stats() on the
// session they handed the factory (RunReduction, which owns its session,
// reports them itself).
func (l *Lab) Simulate(ctx context.Context, fam Family, in Inputs, factory core.ProgramFactory, extract core.OptExtractor, cfg CongestConfig) (SimulationReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return SimulationReport{}, err
	}
	inst, err := fam.Build(in)
	if err != nil {
		return SimulationReport{}, fmt.Errorf("core: build: %w", err)
	}
	return core.Simulate(ctx, fam, in, inst, factory, extract, cfg)
}

// ExactMaxIS solves an instance exactly using its natural clique cover,
// through this Lab's solve cache. On cancellation the best incumbent found
// so far is returned together with ctx.Err() (Optimal false) — the same
// contract as a step-budget exhaustion.
func (l *Lab) ExactMaxIS(ctx context.Context, inst Instance) (Solution, error) {
	return l.solveSession(ctx).Exact(inst.Graph, SolverOptions{CliqueCover: inst.CliqueCover})
}

// WatchSolve is ExactMaxIS with a live progress stream: every incumbent
// improvement the exact solve finds is delivered to o as a
// strictly weight-increasing sequence (a monotonic guard serialises and
// filters the solver's raw events), followed by exactly one Final event
// carrying the returned solution's weight — even when the solve was
// answered from cache and no search ever ran, and even when ctx
// cancellation cut the search short (the Final event then carries the
// best incumbent, mirroring the returned Solution). The Lab's
// WithObserver callback and metrics registry, if any, observe the same
// solve too. A nil o degenerates to ExactMaxIS.
func (l *Lab) WatchSolve(ctx context.Context, inst Instance, o ProgressObserver) (Solution, error) {
	if o == nil {
		return l.ExactMaxIS(ctx, inst)
	}
	guard := obs.NewMonotonic(o)
	sess := l.solveSession(ctx).WithProgress(obs.Tee(guard, l.progress))
	sol, err := sess.Exact(inst.Graph, SolverOptions{CliqueCover: inst.CliqueCover})
	guard.Finish(sol.Weight, sol.Steps)
	return sol, err
}

// ExactMaxISGraph solves an arbitrary graph exactly (no clique cover: the
// solver bounds with a clique partition rebuilt at every search node)
// through this Lab's solve cache, with the same cancellation contract as
// ExactMaxIS.
func (l *Lab) ExactMaxISGraph(ctx context.Context, g *Graph) (Solution, error) {
	return l.solveSession(ctx).Exact(g, SolverOptions{})
}

// VerifyGap builds the instance for in, solves it exactly through the
// Lab's solve cache, and checks the correct side of the family's gap
// predicate, returning the optimum.
func (l *Lab) VerifyGap(ctx context.Context, fam Family, in Inputs) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sess := l.solveSession(ctx)
	return core.AuditGap(fam, in, func(inst Instance) (int64, error) {
		sol, err := sess.Exact(inst.Graph, SolverOptions{CliqueCover: inst.CliqueCover})
		if err != nil {
			return 0, err
		}
		return sol.Weight, nil
	})
}

// SplitBest runs the Section 1 limitation protocol through this Lab's
// solve cache: every player solves its own part locally and announces one
// value, achieving a 1/t-approximation for t·O(log n) bits.
func (l *Lab) SplitBest(ctx context.Context, inst Instance) (SplitBestReport, error) {
	return core.SplitBestWith(l.solveSession(ctx), inst)
}

// beginRun registers an in-flight RunExperiments call and returns the
// Lab's lazily-created pool, holding the Lab open against Close until
// endRun. The refcount is what
// makes Close safe to race with RunExperiments: Close drains the pool
// only after every registered run has finished, so a run can never
// submit onto a pool whose workers already exited (which would block
// its flush loop forever).
func (l *Lab) beginRun() (*experiments.Scheduler, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.sched == nil {
		jobs := l.jobs
		if jobs < 1 {
			jobs = runtime.GOMAXPROCS(0)
		}
		l.sched = experiments.NewScheduler(jobs)
		if l.reg != nil {
			l.sched.SetRegistry(l.reg)
		}
	}
	l.active++
	return l.sched, nil
}

// endRun releases a beginRun registration.
func (l *Lab) endRun() {
	l.mu.Lock()
	l.active--
	if l.active == 0 && l.idle != nil {
		l.idle.Broadcast()
	}
	l.mu.Unlock()
}

// RunExperiments executes the selected registered experiments (empty ids =
// all of them, in ID order) over this Lab's worker pool and solve cache,
// streaming the combined markdown report to w (nil discards) and
// returning the structured result envelope. Cancellation drains queued
// experiments and instance jobs as cancelled, stops in-flight simulations
// and solves cooperatively, and still returns a complete envelope — every
// unfinished experiment is recorded with cancelled: true.
func (l *Lab) RunExperiments(ctx context.Context, ids []string, w io.Writer) (ExperimentEnvelope, error) {
	exps, err := experiments.Select(ids)
	if err != nil {
		return ExperimentEnvelope{}, err
	}
	sched, err := l.beginRun()
	if err != nil {
		return ExperimentEnvelope{}, err
	}
	defer l.endRun()
	return runner.RunCtx(ctx, exps, runner.Options{
		SolveCache: l.solve,
		Scheduler:  sched,
		Obs:        l.reg,
	}, w)
}

// LoadStats is a point-in-time picture of how busy a Lab is — the
// introspection hook behind congestlbd's /v1/status and its per-tenant
// queue-depth gauges. All fields are instantaneous; poll for trends.
type LoadStats struct {
	// QueueDepth is the number of scheduler jobs waiting for a worker
	// (0 when the Lab's experiment pool has not been created yet).
	QueueDepth int `json:"queue_depth"`
	// PoolWorkers is the experiment worker-pool size (0 until the pool
	// is lazily created by the first RunExperiments).
	PoolWorkers int `json:"pool_workers"`
	// ActiveRuns is the number of RunExperiments calls in flight.
	ActiveRuns int `json:"active_runs"`
	// Closed reports that the Lab has been (or is being) closed.
	Closed bool `json:"closed,omitempty"`
}

// Load reports the Lab's current scheduler queue depth and in-flight
// run count. It is cheap and safe to call at any time, including
// concurrently with Close (a closed Lab reports Closed with zero depth).
func (l *Lab) Load() LoadStats {
	l.mu.Lock()
	ls := LoadStats{
		ActiveRuns: l.active,
		Closed:     l.closed,
	}
	sched := l.sched
	l.mu.Unlock()
	if sched != nil {
		ls.QueueDepth = sched.QueueDepth()
		ls.PoolWorkers = sched.Workers()
	}
	return ls
}

// Close releases the Lab's worker pool and detaches its solve cache's disk
// tier. The first Close owns the teardown; every later (or concurrently
// racing) Close blocks until that teardown finishes, then returns
// ErrClosed — so any Close returning means the pool is drained and the
// disk tier detached, and the error tells the caller it was not the one
// that did it. In-flight RunExperiments calls finish first
// (Scheduler.Close drains); pure solve/simulate methods keep working on a
// closed Lab. See docs/api.md for the full post-Close contract.
func (l *Lab) Close() error {
	l.mu.Lock()
	if l.closeDone != nil {
		// Another Close owns the teardown. Block until it completes, then
		// report ErrClosed: the Lab was already closed (or closing) when
		// this call arrived, but it is still safe to tear down external
		// state (e.g. delete the cache directory) once we return.
		done := l.closeDone
		l.mu.Unlock()
		<-done
		return ErrClosed
	}
	l.closed = true
	l.closeDone = make(chan struct{})
	defer close(l.closeDone)
	// Wait out in-flight RunExperiments calls before stopping the pool:
	// closing a scheduler whose runs are still submitting would leave
	// their jobs unclaimed (the workers exit once the queue drains) and
	// their flush loops blocked forever. New runs are already rejected by
	// the closed flag above.
	for l.active > 0 {
		if l.idle == nil {
			l.idle = sync.NewCond(&l.mu)
		}
		l.idle.Wait()
	}
	sched := l.sched
	l.sched = nil
	l.mu.Unlock()
	if sched != nil {
		sched.Close()
	}
	return l.solve.SetDir("")
}
