// Package runner executes registered experiments as shardable jobs over a
// persistent worker pool, turning the experiment suite from a sequential
// batch script into a concurrent engine with machine-readable results.
//
// Two properties drive the design:
//
//   - Markdown reports are byte-identical to a sequential run. Each job
//     streams its experiment's markdown into a private buffer; the main
//     goroutine flushes the buffers in experiment order, each as soon as
//     its job finishes. With one worker this degenerates to exactly the
//     sequential pipeline; with many, only wall-clock changes.
//   - Every run also produces a structured JSON result envelope — one
//     record per experiment (status, wall time, its solve session's
//     cache.Stats, lower-bound graph constructions, instance-job count,
//     recovered panics) plus run-level totals summed from those records —
//     so CI and tooling consume results without parsing markdown.
//     cmd/benchjson validates the envelope; .github/workflows/ci.yml
//     archives it.
//
// Sharding happens at two levels over one experiments.Scheduler pool:
// each experiment is a pool job, and the sweep loops inside an experiment
// submit their per-instance work (build + simulate + solve of one sweep
// point) back into the same pool via Ctx.Go/Ctx.Gather. Nested gathering
// cannot deadlock the pool: a gatherer claims its still-queued jobs and
// runs them inline rather than blocking on them (see
// internal/experiments/context.go). The pool size is therefore NOT
// clamped to the experiment count — extra workers drain instance jobs.
//
// Experiments run concurrently, so their solver work meets in the run's
// content-addressed solve cache (internal/mis/cache): a graph solved by
// one job is a cache hit for every other job that needs the same one. The
// cache belongs to the caller (Options) or, when it passes none, to the
// run alone. Each job nevertheless sees only its own traffic: it runs
// under a private cache.Session view, and its experiments.Ctx counts its
// own lower-bound graph constructions (every one built from scratch),
// which is what makes the per-experiment numbers in the envelope exact at
// any pool size.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"congestlb/internal/experiments"
	"congestlb/internal/fault"
	"congestlb/internal/mis/cache"
	"congestlb/internal/obs"
)

// Schema identifies the envelope format; bump when fields change meaning.
// v4: runs are context-aware — per-experiment cancelled flag and run-level
// cancelled count record experiments left unfinished when the run's
// context fired (cmd/experiments -timeout), and Options can pin the run to
// caller-owned caches and a caller-owned scheduler (the congestlb.Lab
// isolation seam) instead of the process-wide shared ones.
// v5: batched-simulation accounting — per-experiment batch_jobs /
// batched_instances counted the lockstep batch passes the experiment
// submitted and the simulation instances they carried, and a run-level
// batch block summed them (removed in v9).
// v6: observability — when Options.Obs carries a registry, the envelope
// embeds the run's metrics delta (run-scoped counter/gauge/histogram
// snapshot; each solve-cache counter equals its cache block field, per
// cache.RegistryCounters) and a span summary (count/total/max ns per span
// name). Both blocks are omitted on registry-less runs, whose envelopes
// are byte-identical to v5 apart from the schema string.
// v7: fault containment — per-experiment and run-level failures blocks
// (panics recovered, solver-worker panics, degraded solves, disk-tier
// retries and quarantined entries; see docs/robustness.md), omitted when
// all-zero, so fault-free envelopes are byte-identical to v6 apart from
// the schema string. The cache blocks may additionally carry the
// disk_retries/disk_quarantined/worker_panics/degraded_solves counters.
// v8: one solver engine — the run-level solver worker count and the
// worker-panic counters of the failures and cache blocks are gone. A
// recovered solver panic is one degraded solve (degraded_solves).
// v9: no lockstep batching — the per-experiment batch_jobs /
// batched_instances counters and the run-level batch block are gone;
// every simulation is one instance job's CONGEST run. panics_recovered
// counts only panics (a degraded solve is not one).
// v10: no build cache — every lower-bound graph construction runs from
// scratch. The per-experiment lbgraph_hits / lbgraph_misses pair becomes
// lbgraph_builds (the constructions the experiment made), and the
// run-level lbgraph_cache block keeps only hits (always 0) and misses
// (the sum of lbgraph_builds).
// v11: one source per counter — each experiment record carries its solve
// session's cache.Stats as a cache block, replacing solve_steps,
// steps_saved, cache_hits and cache_misses, and the run-level cache block
// is the sum of those blocks (evictions and entries stay snapshots of the
// cache). The failures blocks are gone: degraded_solves, disk_retries and
// disk_quarantined live in the cache blocks, and panics_recovered is an
// omitempty field of the record and of the envelope.
const Schema = "congestlb/experiment-envelope/v11"

// Experiment statuses in the envelope.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Options configures a Run.
type Options struct {
	// Jobs is the worker-pool size; values < 1 select GOMAXPROCS. The
	// pool is shared between experiment-level and per-instance jobs, so
	// values above the experiment count still buy parallelism. Ignored
	// when Scheduler is set (the scheduler's own size wins).
	Jobs int
	// SolveCache pins the run's exact solves to a caller-owned cache.
	// congestlb.Lab sets it, so two Labs in one process share no cache
	// state whatsoever. A nil cache gives the run a fresh one of its own,
	// so nothing carries over from one run to the next.
	SolveCache *cache.Cache
	// Scheduler reuses a caller-owned worker pool across runs instead of
	// starting (and stopping) a private one. The caller keeps ownership:
	// Run never closes it.
	Scheduler *experiments.Scheduler
	// Obs attaches a metrics registry to the run: the solve cache and the
	// engines record into it (callers wire the cache via its SetRegistry
	// before the run — congestlb.Lab does), spans wrap the run
	// → experiment → job/simulate/solve tree, and the envelope embeds the
	// run-scoped Metrics delta and Spans summary. When the runner owns the
	// scheduler it attaches the registry to it too; a caller-owned
	// Scheduler keeps whatever registry the caller set. Nil = no
	// observability, envelope blocks omitted.
	Obs *obs.Registry
}

// ExperimentResult is one experiment's record in the JSON envelope.
type ExperimentResult struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref"`
	// Status is StatusOK or StatusFailed.
	Status string `json:"status"`
	// Error carries the failure text when Status is StatusFailed.
	Error string `json:"error,omitempty"`
	// Cancelled marks an experiment left unfinished because the run's
	// context fired — either before it started (nothing ran) or mid-run
	// (partial work, incumbent-style results discarded). Cancelled
	// experiments also count as failed; the flag distinguishes "the
	// deadline hit" from "an assertion failed".
	Cancelled bool `json:"cancelled,omitempty"`
	// WallMS is the experiment's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// InstanceJobs counts the per-instance jobs the experiment submitted
	// to the shared pool via Ctx.Go — the intra-experiment sharding grain.
	InstanceJobs int64 `json:"instance_jobs"`
	// Cache is the solve-cache traffic booked on behalf of this
	// experiment: the counters of the private cache.Session it ran under,
	// exact at any Jobs count. With single-flight dedup, a solve two
	// overlapping experiments both need books its steps as StepsSolved
	// under the one that ran it; the other records a hit and StepsSaved.
	// Evictions and Entries belong to the cache, not to a session, and
	// stay 0 here.
	Cache cache.Stats `json:"cache"`
	// LBGraphBuilds counts the lower-bound graph constructions the
	// experiment made (experiments.Ctx.Builds), each one from scratch.
	LBGraphBuilds int64 `json:"lbgraph_builds"`
	// PanicsRecovered counts panics recovered while executing this
	// experiment: in its body (Run) and in its scheduler instance jobs. A
	// degraded solve is not one; it is Cache.DegradedSolves.
	PanicsRecovered uint64 `json:"panics_recovered,omitempty"`
}

// BuildStats is the envelope's run-level lower-bound graph block. There
// is no build cache, so Hits is always 0 and Misses is the run's
// constructions: the sum of the per-experiment LBGraphBuilds. The block
// keeps its JSON name and both fields because the benchmark in bench/
// reads them.
type BuildStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Envelope is the structured result of one runner invocation.
type Envelope struct {
	Schema string `json:"schema"`
	// Jobs is the effective worker-pool size of the run.
	Jobs int `json:"jobs"`
	// WallMS is the whole run's wall-clock time; SequentialMS sums the
	// per-experiment wall times, so WallMS/SequentialMS exposes the
	// sharding win on multi-core runs.
	WallMS       float64 `json:"wall_ms"`
	SequentialMS float64 `json:"sequential_ms"`
	// OK and Failed count experiment statuses; Cancelled counts the subset
	// of failures that were context cancellations (always ≤ Failed).
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled,omitempty"`
	// Cache reports the run's solve-cache traffic: every counter is the
	// sum of the experiments' cache blocks, except Evictions, the cache's
	// evictions during the run, and Entries, its occupancy at the end of
	// the run.
	Cache cache.Stats `json:"cache"`
	// LBGraph reports the run's lower-bound graph constructions (see
	// BuildStats).
	LBGraph BuildStats `json:"lbgraph_cache"`
	// PanicsRecovered sums the experiments' PanicsRecovered.
	PanicsRecovered uint64 `json:"panics_recovered,omitempty"`
	// Metrics is the run-scoped delta of the Options.Obs registry
	// (counters/histograms diffed across the run window, gauges at their
	// end-of-run level); Spans aggregates the spans the run completed, by
	// name. Both nil when the run carried no registry.
	Metrics *obs.Snapshot  `json:"metrics,omitempty"`
	Spans   []obs.SpanStat `json:"spans,omitempty"`
	// Experiments holds one record per experiment, in report order.
	Experiments []ExperimentResult `json:"experiments"`
}

// Run executes the given experiments over a worker pool and streams the
// combined markdown report to w (pass nil to discard). The report bytes
// are identical to a sequential experiments.RunAll over the same list,
// whatever the pool size. The returned error aggregates experiment
// failures exactly like experiments.RunAll; the envelope is valid (and
// complete) even when experiments fail.
func Run(exps []experiments.Experiment, opts Options, w io.Writer) (Envelope, error) {
	return RunCtx(context.Background(), exps, opts, w)
}

// RunCtx is Run under a context. Cancellation is cooperative and loss-free
// for the envelope: experiments still queued when the context fires are
// recorded as cancelled without running, in-flight experiments observe the
// context through their solve sessions, CONGEST round loops and instance
// jobs and come back with a ctx error, and the envelope (with cancelled
// flags and counts) plus whatever report sections completed are still
// produced — a partial but well-formed result, never a torn one.
func RunCtx(ctx context.Context, exps []experiments.Experiment, opts Options, w io.Writer) (Envelope, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := opts.Jobs
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if w == nil {
		w = io.Discard
	}
	// The solve cache this run uses: the caller's own (a Lab's) when
	// pinned in Options, else a fresh one.
	if opts.SolveCache == nil {
		opts.SolveCache = cache.New(0)
	}
	// An observed run points the cache at its registry (a Lab already did
	// this for its own cache; re-attaching the same registry is
	// idempotent).
	if opts.Obs != nil {
		opts.SolveCache.SetRegistry(opts.Obs)
	}

	// One scheduler serves both levels: experiment jobs submitted here and
	// the per-instance jobs those experiments fan out through Ctx.Go.
	// Each job owns the buffer and result slot of its experiment index;
	// done[i] is closed when slot i is final. The flush loop below waits
	// on the slots in order, so output streams as soon as the next
	// experiment in report order has finished — not only at the end.
	sched := opts.Scheduler
	ownSched := sched == nil
	if ownSched {
		sched = experiments.NewScheduler(jobs)
		if opts.Obs != nil {
			sched.SetRegistry(opts.Obs)
		}
	} else {
		jobs = sched.Workers()
	}

	// Observability scoping: the metrics snapshot and span watermark taken
	// here make the envelope's blocks deltas of this run alone, so a Lab
	// running suites back to back gets per-run numbers, not lifetime ones.
	var preMetrics obs.Snapshot
	var spanMark int
	var runSpan obs.Span
	if opts.Obs != nil {
		preMetrics = opts.Obs.Snapshot()
		spanMark = opts.Obs.SpanMark()
		ctx = obs.NewContext(ctx, opts.Obs)
		ctx, runSpan = obs.Begin(ctx, "run")
	}

	env := Envelope{
		Schema:      Schema,
		Jobs:        jobs,
		Experiments: make([]ExperimentResult, len(exps)),
	}
	start := time.Now()
	cacheBefore := opts.SolveCache.Stats()

	type slot struct {
		buf  strings.Builder
		done chan struct{}
	}
	slots := make([]*slot, len(exps))
	for i := range slots {
		slots[i] = &slot{done: make(chan struct{})}
	}
	for i := range exps {
		sched.Submit(func() {
			runOne(ctx, exps[i], sched, &slots[i].buf, &env.Experiments[i], opts)
			close(slots[i].done)
		})
	}

	var writeErr error
	for i := range slots {
		<-slots[i].done
		if writeErr == nil {
			_, writeErr = io.WriteString(w, slots[i].buf.String())
		}
		slots[i].buf.Reset()
	}
	if ownSched {
		sched.Close()
	}

	env.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if opts.Obs != nil {
		runSpan.End()
		delta := opts.Obs.Snapshot().DeltaSince(preMetrics)
		env.Metrics = &delta
		env.Spans = opts.Obs.SpanStatsSince(spanMark)
	}

	// Run-level counters are sums of the records: exact at any
	// concurrency, including overlapping RunExperiments calls on one Lab,
	// where diffing the cache across this run's window would book the
	// other run's traffic too. Evictions and Entries are snapshots — they
	// belong to the cache, not to any one run.
	var failures []string
	for _, r := range env.Experiments {
		env.Cache.Add(r.Cache)
		env.LBGraph.Misses += r.LBGraphBuilds
		env.PanicsRecovered += r.PanicsRecovered
		env.SequentialMS += r.WallMS
		if r.Status == StatusFailed {
			env.Failed++
			if r.Cancelled {
				env.Cancelled++
			}
			failures = append(failures, fmt.Sprintf("%s: %s", r.ID, r.Error))
		} else {
			env.OK++
		}
	}
	cacheAfter := opts.SolveCache.Stats()
	env.Cache.Evictions = cacheAfter.Evictions - cacheBefore.Evictions
	env.Cache.Entries = cacheAfter.Entries
	// Joined, not prioritised: a report-writer error (disk full) must not
	// mask which experiments failed, and vice versa.
	var failErr error
	if len(failures) > 0 {
		failErr = fmt.Errorf("experiments failed:\n  %s", strings.Join(failures, "\n  "))
	}
	if writeErr != nil {
		return env, errors.Join(failErr, fmt.Errorf("runner: report write: %w", writeErr))
	}
	return env, failErr
}

// runOne executes a single experiment into its private buffer and fills
// its envelope record. The markdown framing replicates
// experiments.RunAll byte for byte. The private solve session and the
// Ctx's construction count make the solver/cache/build numbers exactly
// this experiment's, however many jobs run concurrently; the scheduler
// hands the experiment's Ctx.Go instance jobs to the shared pool.
func runOne(ctx context.Context, e experiments.Experiment, sched *experiments.Scheduler, buf *strings.Builder, res *ExperimentResult, opts Options) {
	res.ID, res.Title, res.PaperRef = e.ID, e.Title, e.PaperRef
	fmt.Fprintf(buf, "## %s — %s\n\n*Reproduces: %s*\n\n", e.ID, e.Title, e.PaperRef)
	if err := ctx.Err(); err != nil {
		// The run's context fired while this experiment was still queued:
		// record it as cancelled without running anything, so the envelope
		// stays complete (one record per experiment) on a timeout.
		res.Status, res.Error, res.Cancelled = StatusFailed, err.Error(), true
		fmt.Fprintf(buf, "**FAILED**: %v\n\n", err)
		return
	}
	var esp obs.Span
	ctx, esp = obs.Begin(ctx, "experiment:"+e.ID)
	defer esp.End()
	sess := cache.NewSession(opts.SolveCache).WithContext(ctx)
	ectx := experiments.NewCtx(buf, sess).WithScheduler(sched).WithContext(ctx)
	start := time.Now()
	recovered, err := runBody(ectx, e)
	// An experiment that errors between Go and Gather leaves instance
	// jobs queued or running. Drain them before snapshotting: their cache
	// traffic belongs to this experiment's record, and a leaked job must
	// not keep occupying a pool worker (or mutating this experiment's
	// sessions) into later experiments' windows. Their errors are
	// discarded — a sequential early-returning loop never ran them.
	_ = ectx.Gather()
	res.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	res.Cache = sess.Stats()
	res.LBGraphBuilds = ectx.Builds()
	res.InstanceJobs = ectx.InstanceJobs()
	// Gathered instance jobs that panicked, plus the experiment body
	// itself if runBody caught a panic. No double counting: a body panic
	// never reaches the job layer (runBody recovers first), and job panics
	// surface as job errors, not as body panics.
	res.PanicsRecovered = uint64(ectx.PanicsRecovered())
	if recovered {
		res.PanicsRecovered++
	}
	if err != nil {
		res.Status = StatusFailed
		res.Error = err.Error()
		// Classify context cancellations (the experiment was healthy, the
		// deadline was not) so cmd/experiments -timeout can report a
		// partial envelope honestly. Only the error chain decides — the
		// plumbing wraps ctx errors with %w everywhere — because "the
		// deadline has expired by now" must not relabel a genuine
		// assertion failure that raced it as a mere timeout.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			res.Cancelled = true
		}
		fmt.Fprintf(buf, "**FAILED**: %v\n\n", err)
		return
	}
	res.Status = StatusOK
	fmt.Fprintf(buf, "\n")
}

// runBody executes the experiment's Run with panic containment: a panic
// anywhere in the body (or in an inline-claimed instance job that the
// scheduler's own recovery did not see first) fails this experiment with
// a structured *fault.PanicError instead of tearing down the runner — and
// crucially instead of skipping the slot's done-channel close, which
// would deadlock the flush loop. recovered reports whether the error is a
// panic runBody itself caught (as opposed to one a lower layer already
// converted and returned as a plain error).
func runBody(ectx *experiments.Ctx, e experiments.Experiment) (recovered bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			recovered = true
			err = fault.NewPanicError("experiment:"+e.ID, r)
		}
	}()
	fault.MaybePanic(fault.JobPanic, e.ID)
	return false, e.Run(ectx)
}
