package congestlb_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"congestlb"
)

// buildTestInstance constructs a small solvable lower-bound instance.
func buildTestInstance(t *testing.T, seed int64) (congestlb.Family, congestlb.Instance) {
	t.Helper()
	p := congestlb.Params{T: 2, Alpha: 1, Ell: 3}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	in, _, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := congestlb.BuildInstance(fam, in)
	if err != nil {
		t.Fatal(err)
	}
	return fam, inst
}

// TestLabMemoryCacheIsolation: a solve cached in one Lab is a cold miss in
// another — Labs share no in-memory cache state.
func TestLabMemoryCacheIsolation(t *testing.T) {
	_, inst := buildTestInstance(t, 41)
	ctx := context.Background()
	lab1 := newTestLab(t)
	lab2 := newTestLab(t)

	if _, err := lab1.ExactMaxIS(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if _, err := lab1.ExactMaxIS(ctx, inst); err != nil {
		t.Fatal(err)
	}
	st1 := lab1.SolveCacheStats()
	if st1.Misses != 1 || st1.Hits != 1 {
		t.Fatalf("lab1 stats %+v, want 1 miss + 1 hit", st1)
	}
	if _, err := lab2.ExactMaxIS(ctx, inst); err != nil {
		t.Fatal(err)
	}
	st2 := lab2.SolveCacheStats()
	if st2.Misses != 1 || st2.Hits != 0 {
		t.Fatalf("lab2 observed lab1's cache: %+v", st2)
	}
	if st2.StepsSolved == 0 {
		t.Fatal("lab2 did no solver work of its own")
	}
}

// TestLabCacheDirsNeverCrossPopulate is the config-smearing regression
// test: two Labs with different solve-cache directories persist and serve
// strictly within their own directory. Before the Lab API, re-pointing the
// process-wide SetSolveCacheDir mid-run could smear one workload's entries
// into another's directory; per-Lab tiers close that hazard by
// construction, and this pins it.
func TestLabCacheDirsNeverCrossPopulate(t *testing.T) {
	_, inst := buildTestInstance(t, 43)
	ctx := context.Background()
	dir1 := filepath.Join(t.TempDir(), "tier1")
	dir2 := filepath.Join(t.TempDir(), "tier2")

	lab1 := newTestLab(t, congestlb.WithSolveCacheDir(dir1))
	if _, err := lab1.ExactMaxIS(ctx, inst); err != nil {
		t.Fatal(err)
	}
	st1 := lab1.SolveCacheStats()
	if st1.DiskWrites == 0 {
		t.Fatalf("lab1 persisted nothing: %+v", st1)
	}

	// Same graph through a Lab with a different directory: it must neither
	// see lab1's entry (disk miss, fresh solve) nor write into lab1's dir.
	entries1 := dirEntries(t, dir1)
	lab2 := newTestLab(t, congestlb.WithSolveCacheDir(dir2))
	if _, err := lab2.ExactMaxIS(ctx, inst); err != nil {
		t.Fatal(err)
	}
	st2 := lab2.SolveCacheStats()
	if st2.DiskHits != 0 {
		t.Fatalf("lab2 served lab1's disk entry: %+v", st2)
	}
	if st2.DiskMisses == 0 || st2.DiskWrites == 0 || st2.StepsSolved == 0 {
		t.Fatalf("lab2 did not run its own cold solve: %+v", st2)
	}
	if got := dirEntries(t, dir1); got != entries1 {
		t.Fatalf("lab2 wrote into lab1's directory: %d -> %d entries", entries1, got)
	}
	if dirEntries(t, dir2) == 0 {
		t.Fatal("lab2's directory empty after a persisted solve")
	}

	// And the tier itself works: a third Lab pointed at dir1 gets the hit,
	// proving lab2's zero disk hits measured isolation, not a dead tier.
	lab3 := newTestLab(t, congestlb.WithSolveCacheDir(dir1))
	if _, err := lab3.ExactMaxIS(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if st3 := lab3.SolveCacheStats(); st3.DiskHits == 0 {
		t.Fatalf("lab3 could not read lab1's tier: %+v", st3)
	}
}

func dirEntries(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(des)
}

// labSuiteIDs is the experiment subset the concurrency tests run: distinct
// workloads (simulation sweeps, exact solves, builds) without the heavy
// full-reduction pair, so -race stays affordable. Out of -short mode the
// acceptance test below upgrades to the full registry.
var labSuiteIDs = []string{"figure1", "codes", "cutsize", "solver", "twoparty"}

// TestTwoLabsConcurrentSuite: two Labs with different cache directories
// run the experiment suite concurrently (race-tested in CI), each envelope's
// per-experiment cache numbers summing exactly to its own run-level delta
// — non-overlapping attribution, no cross-Lab leakage.
func TestTwoLabsConcurrentSuite(t *testing.T) {
	ids := labSuiteIDs
	if !testing.Short() {
		ids = nil // the full registry
	}
	type labRun struct {
		lab *congestlb.Lab
		env congestlb.ExperimentEnvelope
		buf bytes.Buffer
		err error
	}
	runs := []*labRun{
		{lab: newTestLab(t, congestlb.WithJobs(4), congestlb.WithMetrics(true),
			congestlb.WithSolveCacheDir(filepath.Join(t.TempDir(), "a")))},
		{lab: newTestLab(t, congestlb.WithJobs(4), congestlb.WithMetrics(true),
			congestlb.WithSolveCacheDir(filepath.Join(t.TempDir(), "b")))},
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.env, r.err = r.lab.RunExperiments(context.Background(), ids, &r.buf)
		}()
	}
	wg.Wait()

	for i, r := range runs {
		if r.err != nil {
			t.Fatalf("lab %d: %v", i, r.err)
		}
		if r.env.Failed != 0 || r.env.OK == 0 {
			t.Fatalf("lab %d envelope: %+v", i, r.env)
		}
		if r.buf.Len() == 0 {
			t.Fatalf("lab %d produced no report", i)
		}
		// Exact attribution: the experiments' session counters must sum to
		// the run-level delta of this Lab's own cache. Any cross-Lab
		// leakage would break the equality on one side or the other —
		// traffic booked in the wrong Lab's cache inflates its delta
		// without a matching per-experiment record.
		var hits, misses uint64
		var solved, saved, builds int64
		for _, er := range r.env.Experiments {
			hits += er.CacheHits
			misses += er.CacheMisses
			solved += er.SolveSteps
			saved += er.StepsSaved
			builds += er.LBGraphBuilds
		}
		if hits != r.env.Cache.Hits || misses != r.env.Cache.Misses {
			t.Fatalf("lab %d solve-cache attribution drifted: sum %d/%d, delta %d/%d",
				i, hits, misses, r.env.Cache.Hits, r.env.Cache.Misses)
		}
		if solved != r.env.Cache.StepsSolved || saved != r.env.Cache.StepsSaved {
			t.Fatalf("lab %d step attribution drifted: sum %d/%d, delta %d/%d",
				i, solved, saved, r.env.Cache.StepsSolved, r.env.Cache.StepsSaved)
		}
		if r.env.LBGraph.Hits != 0 || r.env.LBGraph.Misses != builds || builds == 0 {
			t.Fatalf("lab %d lbgraph block %+v, want 0 hits and the %d constructions its experiments made",
				i, r.env.LBGraph, builds)
		}
		if misses == 0 || solved == 0 {
			t.Fatalf("lab %d saw no cold solver work on a fresh cache: %+v", i, r.env.Cache)
		}
		// Per-Lab metrics never cross-contaminate: each registry is fresh
		// and ran exactly one suite, so its lifetime counters must equal
		// its own envelope's run delta. Traffic leaking from the
		// concurrently running other Lab would inflate the registry side
		// of the equality.
		snap := r.lab.Metrics()
		if got, want := snap.Counter("solve_cache_hits"), int64(r.env.Cache.Hits); got != want {
			t.Fatalf("lab %d registry solve hits %d, envelope %d", i, got, want)
		}
		if got, want := snap.Counter("solve_cache_misses"), int64(r.env.Cache.Misses); got != want {
			t.Fatalf("lab %d registry solve misses %d, envelope %d", i, got, want)
		}
		if r.env.Metrics == nil || len(r.env.Spans) == 0 {
			t.Fatalf("lab %d envelope missing observability blocks", i)
		}
	}
	// Both Labs solved the same suite cold: had they shared a cache, one
	// side's solves would have surfaced as the other's hits/steps-saved.
	if runs[0].env.Cache.StepsSolved == 0 || runs[1].env.Cache.StepsSolved == 0 {
		t.Fatal("one Lab rode the other's cache — isolation broken")
	}
}

// TestOneLabConcurrentRunsExactAttribution: two overlapping
// RunExperiments calls on the SAME Lab (sharing its caches and pool) must
// each produce an envelope whose run-level traffic equals its own
// per-experiment sums — run-level numbers are summed from the runs' own
// sessions, never diffed across a window the other run was also writing.
func TestOneLabConcurrentRunsExactAttribution(t *testing.T) {
	lab := newTestLab(t, congestlb.WithJobs(4))
	type out struct {
		env congestlb.ExperimentEnvelope
		err error
	}
	outs := make([]out, 2)
	var wg sync.WaitGroup
	for i := range outs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i].env, outs[i].err = lab.RunExperiments(context.Background(), labSuiteIDs, nil)
		}()
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("run %d: %v", i, o.err)
		}
		var hits, misses uint64
		var solved, saved int64
		for _, r := range o.env.Experiments {
			hits += r.CacheHits
			misses += r.CacheMisses
			solved += r.SolveSteps
			saved += r.StepsSaved
		}
		if hits != o.env.Cache.Hits || misses != o.env.Cache.Misses ||
			solved != o.env.Cache.StepsSolved || saved != o.env.Cache.StepsSaved {
			t.Fatalf("run %d: run-level traffic (%d/%d, %d/%d) != per-experiment sums (%d/%d, %d/%d)",
				i, o.env.Cache.Hits, o.env.Cache.Misses, o.env.Cache.StepsSolved, o.env.Cache.StepsSaved,
				hits, misses, solved, saved)
		}
	}
}

// TestLabRepeatRunByteIdentical: the golden-report property through the
// facade — one Lab, same suite twice (cold then fully cached), identical
// markdown bytes. Cached solves return the original Solution verbatim, so
// warmth is unobservable in the report.
func TestLabRepeatRunByteIdentical(t *testing.T) {
	lab := newTestLab(t, congestlb.WithJobs(4))
	var first, second bytes.Buffer
	if _, err := lab.RunExperiments(context.Background(), labSuiteIDs, &first); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.RunExperiments(context.Background(), labSuiteIDs, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("warm rerun through the same Lab changed the report")
	}
}

// TestLabExactMaxISCancelled pins the facade-level cancellation contract:
// a dead context still returns the incumbent witness with ctx.Err().
func TestLabExactMaxISCancelled(t *testing.T) {
	_, inst := buildTestInstance(t, 47)
	lab := newTestLab(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := lab.ExactMaxIS(ctx, inst)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol.Optimal {
		t.Fatal("cancelled solve claims optimality")
	}
	if len(sol.Set) == 0 {
		t.Fatal("cancelled solve lost the incumbent")
	}
	if _, verr := congestlb.VerifyIndependent(inst.Graph, sol.Set); verr != nil {
		t.Fatalf("incumbent not independent: %v", verr)
	}
}

// TestLabRunReductionCancelled: a dead context stops the simulation before
// any round runs.
func TestLabRunReductionCancelled(t *testing.T) {
	p := congestlb.Params{T: 2, Alpha: 1, Ell: 3}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	in, _, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	lab := newTestLab(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lab.RunReduction(ctx, fam, in, congestlb.CongestConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLabCloseSemantics: Close is idempotent (a second Close is safe and
// reports ErrClosed instead of panicking), rejects further experiment
// runs, keeps pure solves working, and the default Lab refuses to close.
func TestLabCloseSemantics(t *testing.T) {
	_, inst := buildTestInstance(t, 59)
	lab, err := congestlb.New(congestlb.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.RunExperiments(context.Background(), []string{"codes"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := lab.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Close is safe but reports that the Lab was already closed.
	if err := lab.Close(); !errors.Is(err, congestlb.ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := lab.RunExperiments(context.Background(), []string{"codes"}, nil); !errors.Is(err, congestlb.ErrClosed) {
		t.Fatalf("closed Lab RunExperiments = %v, want ErrClosed", err)
	}
	if _, err := lab.ExactMaxIS(context.Background(), inst); err != nil {
		t.Fatalf("closed Lab lost pure solving: %v", err)
	}
}

// TestLabCloseConcurrent: many goroutines racing Close on one Lab —
// exactly one wins the teardown (nil), every loser blocks until the
// teardown is complete and reports ErrClosed. Run with -race this also
// proves the teardown itself is not entered twice.
func TestLabCloseConcurrent(t *testing.T) {
	lab, err := congestlb.New(congestlb.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.RunExperiments(context.Background(), []string{"codes"}, nil); err != nil {
		t.Fatal(err)
	}
	const closers = 8
	errs := make(chan error, closers)
	for i := 0; i < closers; i++ {
		go func() { errs <- lab.Close() }()
	}
	var nils, closed int
	for i := 0; i < closers; i++ {
		switch err := <-errs; {
		case err == nil:
			nils++
		case errors.Is(err, congestlb.ErrClosed):
			closed++
		default:
			t.Fatalf("unexpected Close error: %v", err)
		}
	}
	if nils != 1 || closed != closers-1 {
		t.Fatalf("%d nil / %d ErrClosed, want exactly 1 / %d", nils, closed, closers-1)
	}
}

// TestLabSetSolveCacheDirRacesClose races SetSolveCacheDir against Close
// on fresh Labs: whichever wins, once Close has returned nil the disk tier
// stays detached — Close's detach is final, so a caller may delete the
// directory.
func TestLabSetSolveCacheDirRacesClose(t *testing.T) {
	dir := t.TempDir()
	const pairs = 5000
	reattached := 0
	for i := 0; i < pairs; i++ {
		lab, err := congestlb.New()
		if err != nil {
			t.Fatal(err)
		}
		setErr := make(chan error, 1)
		go func() { setErr <- lab.SetSolveCacheDir(dir) }()
		if err := lab.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := <-setErr; err != nil && !errors.Is(err, congestlb.ErrClosed) {
			t.Fatalf("SetSolveCacheDir: %v", err)
		}
		if lab.SolveCacheDir() != "" {
			reattached++
		}
	}
	if reattached > 0 {
		t.Fatalf("%d of %d SetSolveCacheDir/Close pairs re-attached the disk tier after Close returned", reattached, pairs)
	}
}

// TestLabCloseWaitsForInFlightRun: Close racing RunExperiments must wait
// for the run instead of pulling the scheduler out from under it (which
// would strand the runner's flush loop forever).
func TestLabCloseWaitsForInFlightRun(t *testing.T) {
	lab, err := congestlb.New(congestlb.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := lab.RunExperiments(context.Background(), labSuiteIDs, nil)
		runDone <- err
	}()
	// Close concurrently with the run: it must block until the run
	// finishes, then succeed; the run itself must complete normally.
	closeDone := make(chan error, 1)
	go func() { closeDone <- lab.Close() }()
	if err := <-runDone; err != nil {
		// The run may also be rejected outright if Close won the race to
		// the closed flag before the run registered — that is the other
		// legal outcome, never a hang.
		if err.Error() != "congestlb: Lab is closed" {
			t.Fatalf("in-flight run failed: %v", err)
		}
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestLabSolverWorkersOption: the deprecated WithSolverWorkers is accepted
// and changes nothing — a Lab built with it solves to the same Set,
// Weight and Steps as a Lab built without it.
func TestLabSolverWorkersOption(t *testing.T) {
	with := newTestLab(t, congestlb.WithSolverWorkers(3))
	without := newTestLab(t)
	for seed := int64(1); seed <= 4; seed++ {
		g := loadTestGraph(seed)
		got, err := with.ExactMaxISGraph(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := without.ExactMaxISGraph(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Set, want.Set) || got.Weight != want.Weight || got.Steps != want.Steps {
			t.Fatalf("seed %d: WithSolverWorkers(3) solved %v (w=%d, %d steps), plain Lab %v (w=%d, %d steps)",
				seed, got.Set, got.Weight, got.Steps, want.Set, want.Weight, want.Steps)
		}
	}
}

// TestLabRunReductionBatchMatchesSolo: RunReduction over a sweep of inputs
// on one Lab, repeated input included, gives each input the report a fresh
// Lab gives it, cache counters aside: the warm caches the sweep builds up
// change the hit/miss split, never the simulation. The sweep's solves
// still book against the Lab.
func TestLabRunReductionBatchMatchesSolo(t *testing.T) {
	p := congestlb.Params{T: 2, Alpha: 1, Ell: 3}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	ins := make([]congestlb.Inputs, 3)
	for i := range ins {
		in, _, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
		if err != nil {
			t.Fatal(err)
		}
		ins[i] = in
	}
	ins = append(ins, ins[0])
	cfg := congestlb.CongestConfig{Seed: 7}

	sweepLab := newTestLab(t)
	for i, in := range ins {
		want, err := newTestLab(t).RunReduction(context.Background(), fam, in, cfg)
		if err != nil {
			t.Fatalf("fresh-Lab run %d: %v", i, err)
		}
		got, err := sweepLab.RunReduction(context.Background(), fam, in, cfg)
		if err != nil {
			t.Fatalf("sweep run %d: %v", i, err)
		}
		want.SolveCacheHits, want.SolveCacheMisses = 0, 0
		got.SolveCacheHits, got.SolveCacheMisses = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("report %d diverged:\n sweep %+v\n fresh %+v", i, got, want)
		}
	}
	if st := sweepLab.SolveCacheStats(); st.Hits+st.Misses == 0 {
		t.Error("sweep solves did not book against the Lab's solve cache")
	}
}
