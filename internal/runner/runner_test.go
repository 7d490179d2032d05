package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"congestlb/internal/experiments"
)

// fastSubset picks a handful of real experiments with distinct workloads.
func fastSubset(t *testing.T) []experiments.Experiment {
	t.Helper()
	exps, err := experiments.Select([]string{"figure1", "codes", "cutsize", "solver", "twoparty"})
	if err != nil {
		t.Fatal(err)
	}
	return exps
}

func TestShardedReportMatchesSequential(t *testing.T) {
	exps := fastSubset(t)

	var sequential bytes.Buffer
	if _, err := Run(exps, Options{Jobs: 1}, &sequential); err != nil {
		t.Fatal(err)
	}
	var sharded bytes.Buffer
	if _, err := Run(exps, Options{Jobs: 4}, &sharded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sequential.Bytes(), sharded.Bytes()) {
		t.Fatalf("sharded report differs from sequential run:\n--- jobs=1 ---\n%.400s\n--- jobs=4 ---\n%.400s",
			sequential.String(), sharded.String())
	}
}

// TestRunMatchesRunAll pins the runner's framing to the legacy sequential
// aggregator byte for byte, over the full registry.
func TestRunMatchesRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry comparison runs every experiment; skipped in -short mode")
	}
	var legacy bytes.Buffer
	if err := experiments.RunAll(&legacy); err != nil {
		t.Fatal(err)
	}
	var sharded bytes.Buffer
	if _, err := Run(experiments.All(), Options{Jobs: 4}, &sharded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), sharded.Bytes()) {
		t.Fatal("runner output diverged from experiments.RunAll")
	}
}

func TestEnvelopeFields(t *testing.T) {
	exps := fastSubset(t)
	env, err := Run(exps, Options{Jobs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Schema != Schema {
		t.Fatalf("schema %q", env.Schema)
	}
	if env.Jobs != 2 {
		t.Fatalf("jobs %d", env.Jobs)
	}
	if env.OK != len(exps) || env.Failed != 0 {
		t.Fatalf("counts ok=%d failed=%d", env.OK, env.Failed)
	}
	if env.WallMS <= 0 || env.SequentialMS <= 0 {
		t.Fatalf("wall times not recorded: %+v", env)
	}
	if len(env.Experiments) != len(exps) {
		t.Fatalf("%d records for %d experiments", len(env.Experiments), len(exps))
	}
	for i, r := range env.Experiments {
		if r.ID != exps[i].ID {
			t.Fatalf("record %d is %s, want %s (order must match the report)", i, r.ID, exps[i].ID)
		}
		if r.Status != StatusOK {
			t.Fatalf("%s status %q: %s", r.ID, r.Status, r.Error)
		}
		if r.WallMS < 0 {
			t.Fatalf("%s wall %f", r.ID, r.WallMS)
		}
	}
	// The subset includes exact solves (figure1, solver, twoparty), and a
	// run without a caller-owned cache starts on a fresh one, so it must
	// have recorded solver misses.
	if env.Cache.Misses == 0 {
		t.Fatalf("no solve-cache misses recorded: %+v", env.Cache)
	}
}

// TestPerJobAttributionExact is the thread-local accounting property: with
// a fresh cache (the run's own) and heavily overlapping jobs, the
// per-experiment session counters must sum exactly to the run-level cache
// delta — no traffic double-counted, none lost to a concurrent job's
// window.
func TestPerJobAttributionExact(t *testing.T) {
	exps := fastSubset(t)
	env, err := Run(exps, Options{Jobs: len(exps)}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses uint64
	var solved, saved int64
	for _, r := range env.Experiments {
		hits += r.CacheHits
		misses += r.CacheMisses
		solved += r.SolveSteps
		saved += r.StepsSaved
	}
	if hits != env.Cache.Hits || misses != env.Cache.Misses {
		t.Fatalf("lookup attribution drifted: experiments sum %d/%d, run delta %d/%d",
			hits, misses, env.Cache.Hits, env.Cache.Misses)
	}
	if solved != env.Cache.StepsSolved || saved != env.Cache.StepsSaved {
		t.Fatalf("step attribution drifted: experiments sum %d solved / %d saved, run delta %d / %d",
			solved, saved, env.Cache.StepsSolved, env.Cache.StepsSaved)
	}
	if misses == 0 || solved == 0 {
		t.Fatalf("fresh cache saw no solver work: %+v", env.Cache)
	}
}

// TestLBGraphAttributionExact is the construction twin of the solve-cache
// attribution property: with overlapping jobs, the run-level lbgraph
// block reads 0 hits and, as misses, exactly the sum of the
// per-experiment construction counts; and the sharded sweeps must record
// their instance jobs.
func TestLBGraphAttributionExact(t *testing.T) {
	exps := fastSubset(t)
	env, err := Run(exps, Options{Jobs: len(exps)}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var builds, instanceJobs int64
	for _, r := range env.Experiments {
		builds += r.LBGraphBuilds
		instanceJobs += r.InstanceJobs
	}
	if env.LBGraph.Hits != 0 || env.LBGraph.Misses != builds {
		t.Fatalf("lbgraph block %+v, want 0 hits and the experiments' %d constructions",
			env.LBGraph, builds)
	}
	if builds == 0 {
		t.Fatalf("run made no constructions: %+v", env.LBGraph)
	}
	// The subset includes sharded sweeps (cutsize, solver, twoparty), so
	// the run must have fanned out per-instance jobs.
	if instanceJobs == 0 {
		t.Fatal("no instance jobs recorded — intra-experiment sharding inactive")
	}
	for _, r := range env.Experiments {
		switch r.ID {
		case "cutsize", "solver", "twoparty":
			if r.InstanceJobs == 0 {
				t.Errorf("%s: sweep experiment recorded no instance jobs", r.ID)
			}
		}
	}
}

// TestWorkerPoolNotClampedToExperiments: since intra-experiment sharding,
// pool workers beyond the experiment count drain per-instance jobs, so
// the requested size is kept (and recorded) as-is.
func TestWorkerPoolNotClampedToExperiments(t *testing.T) {
	exps := fastSubset(t)[:2]
	env, err := Run(exps, Options{Jobs: 8}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if env.Jobs != 8 {
		t.Fatalf("requested pool size not honoured: jobs=%d", env.Jobs)
	}
}

func TestFailuresAggregateLikeRunAll(t *testing.T) {
	boom := errors.New("assertion blew up")
	exps := []experiments.Experiment{
		{ID: "alpha", Title: "A", PaperRef: "ref A", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "alpha body")
			return nil
		}},
		{ID: "beta", Title: "B", PaperRef: "ref B", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "beta body")
			return boom
		}},
		{ID: "gamma", Title: "C", PaperRef: "ref C", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "gamma body")
			return nil
		}},
	}
	var report bytes.Buffer
	env, err := Run(exps, Options{Jobs: 3}, &report)
	if err == nil {
		t.Fatal("failure did not surface")
	}
	want := "experiments failed:\n  beta: assertion blew up"
	if err.Error() != want {
		t.Fatalf("error %q, want %q (RunAll parity)", err.Error(), want)
	}
	if env.OK != 2 || env.Failed != 1 {
		t.Fatalf("counts ok=%d failed=%d", env.OK, env.Failed)
	}
	if env.Experiments[1].Status != StatusFailed || env.Experiments[1].Error != "assertion blew up" {
		t.Fatalf("beta record %+v", env.Experiments[1])
	}
	out := report.String()
	if !strings.Contains(out, "**FAILED**: assertion blew up") {
		t.Fatalf("report missing failure marker:\n%s", out)
	}
	// The failing experiment must not derail the ones after it.
	if !strings.Contains(out, "gamma body") {
		t.Fatalf("report missing post-failure section:\n%s", out)
	}
	// Order preserved despite concurrency.
	if strings.Index(out, "## alpha") > strings.Index(out, "## beta") ||
		strings.Index(out, "## beta") > strings.Index(out, "## gamma") {
		t.Fatalf("sections out of order:\n%s", out)
	}
}

func TestRunEmptyList(t *testing.T) {
	env, err := Run(nil, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.OK != 0 || env.Failed != 0 || len(env.Experiments) != 0 {
		t.Fatalf("empty run envelope %+v", env)
	}
}

// TestEnvelopeBatchAccounting: the v9 envelope carries no batch
// accounting, and every simulation is an instance job of its own —
// scaling one per sweep point, theorem5 one per (case, algorithm) pair,
// upperbounds one for the optimum and one for its four runs, cutsize one
// per parameter set.
func TestEnvelopeBatchAccounting(t *testing.T) {
	want := map[string]int64{"scaling": 3, "theorem5": 4, "upperbounds": 2, "cutsize": 5}
	exps, err := experiments.Select([]string{"scaling", "theorem5", "upperbounds", "cutsize"})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Run(exps, Options{Jobs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"batch_jobs":`, `"batched_instances":`, `"batch":`} {
		if strings.Contains(string(data), key) {
			t.Fatalf("v9 envelope carries %s", key)
		}
	}
	for _, r := range env.Experiments {
		if r.InstanceJobs != want[r.ID] {
			t.Errorf("%s: %d instance jobs, want %d", r.ID, r.InstanceJobs, want[r.ID])
		}
	}
}
