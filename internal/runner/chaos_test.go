package runner

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"congestlb/internal/experiments"
	"congestlb/internal/fault"
	"congestlb/internal/mis/cache"
)

// armFaults installs a fault-injection plan for one test and restores the
// previous injector afterwards. Chaos tests must not run in parallel:
// the injector is process-global.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	inj, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	prev := fault.Set(inj)
	t.Cleanup(func() { fault.Set(prev) })
}

// jobCounts is the pool-size axis every containment test sweeps: the
// inline path (1) and increasingly contended pools.
var jobCounts = []int{1, 2, 4, 8}

// TestExperimentBodyPanicContained: a panic inside an experiment's Run
// (injected at the job-panic point runBody guards) fails exactly that
// experiment — siblings complete, the scheduler survives, the envelope
// attributes one recovered panic to the panicking experiment — and the
// report, FAILED line included, is byte-identical at every pool size.
func TestExperimentBodyPanicContained(t *testing.T) {
	exps := []experiments.Experiment{
		{ID: "alpha", Title: "A", PaperRef: "ref A", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "alpha body")
			return nil
		}},
		{ID: "boom", Title: "B", PaperRef: "ref B", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "boom body")
			return nil
		}},
		{ID: "gamma", Title: "C", PaperRef: "ref C", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "gamma body")
			return nil
		}},
	}
	var reports []string
	for _, jobs := range jobCounts {
		armFaults(t, "11:job-panic@boom*1")
		var report bytes.Buffer
		env, err := Run(exps, Options{Jobs: jobs}, &report)
		if err == nil {
			t.Fatalf("jobs=%d: contained panic did not surface as a run error", jobs)
		}
		if env.OK != 2 || env.Failed != 1 {
			t.Fatalf("jobs=%d: ok=%d failed=%d, want 2/1", jobs, env.OK, env.Failed)
		}
		rec := env.Experiments[1]
		if rec.ID != "boom" || rec.Status != StatusFailed {
			t.Fatalf("jobs=%d: wrong record failed: %+v", jobs, rec)
		}
		if !strings.Contains(rec.Error, "panic in experiment:boom") {
			t.Fatalf("jobs=%d: error not attributed to the experiment body: %q", jobs, rec.Error)
		}
		if rec.Failures == nil || rec.Failures.PanicsRecovered != 1 {
			t.Fatalf("jobs=%d: failures block %+v, want exactly 1 recovered panic", jobs, rec.Failures)
		}
		if env.Failures == nil || *env.Failures != *rec.Failures {
			t.Fatalf("jobs=%d: run-level failures %+v do not mirror the single failing experiment", jobs, env.Failures)
		}
		out := report.String()
		if !strings.Contains(out, "**FAILED**: panic in experiment:boom") {
			t.Fatalf("jobs=%d: report missing the stable FAILED line:\n%s", jobs, out)
		}
		if !strings.Contains(out, "gamma body") {
			t.Fatalf("jobs=%d: experiment after the panic missing:\n%s", jobs, out)
		}
		reports = append(reports, out)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("report at jobs=%d differs from jobs=%d:\n--- jobs=%d ---\n%.400s\n--- jobs=%d ---\n%.400s",
				jobCounts[i], jobCounts[0], jobCounts[0], reports[0], jobCounts[i], reports[i])
		}
	}
}

// TestInstanceJobPanicContained: a panic inside one Ctx.Go instance job
// becomes a *fault.PanicError from Gather — sibling jobs of the same
// experiment still ran, sibling experiments are untouched — with the
// identical FAILED line on the inline (jobs=1) and pooled paths.
func TestInstanceJobPanicContained(t *testing.T) {
	var reports []string
	for _, jobs := range jobCounts {
		done := make([]bool, 4)
		exps := []experiments.Experiment{
			{ID: "sweep", Title: "S", PaperRef: "ref S", Run: func(w *experiments.Ctx) error {
				for i := range done {
					i := i
					w.Go(func() error {
						if i == 2 {
							panic("job kaboom")
						}
						done[i] = true
						return nil
					})
				}
				return w.Gather()
			}},
			{ID: "calm", Title: "C", PaperRef: "ref C", Run: func(w *experiments.Ctx) error {
				fmt.Fprintln(w, "calm body")
				return nil
			}},
		}
		var report bytes.Buffer
		env, err := Run(exps, Options{Jobs: jobs}, &report)
		if err == nil {
			t.Fatalf("jobs=%d: job panic did not fail the experiment", jobs)
		}
		for i, ok := range done {
			if i != 2 && !ok {
				t.Fatalf("jobs=%d: sibling job %d did not run", jobs, i)
			}
		}
		rec := env.Experiments[0]
		if rec.Status != StatusFailed || !strings.Contains(rec.Error, "panic in job: job kaboom") {
			t.Fatalf("jobs=%d: record %+v, want the job's PanicError", jobs, rec)
		}
		if rec.Failures == nil || rec.Failures.PanicsRecovered != 1 {
			t.Fatalf("jobs=%d: failures block %+v, want exactly 1 recovered panic", jobs, rec.Failures)
		}
		if env.Experiments[1].Status != StatusOK {
			t.Fatalf("jobs=%d: sibling experiment dragged down: %+v", jobs, env.Experiments[1])
		}
		out := report.String()
		if !strings.Contains(out, "**FAILED**: panic in job: job kaboom") {
			t.Fatalf("jobs=%d: report missing the stable FAILED line:\n%s", jobs, out)
		}
		reports = append(reports, out)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("report at jobs=%d differs from jobs=%d", jobCounts[i], jobCounts[0])
		}
	}
}

// TestGoldenReportUnderDiskFaults: a seeded disk-fault-only plan (flaky
// reads and writes, rotting entries, slow I/O) must leave the markdown
// report byte-identical to a fault-free run at every pool size — the
// disk tier absorbs every such fault without touching results.
func TestGoldenReportUnderDiskFaults(t *testing.T) {
	exps := fastSubset(t)
	var clean bytes.Buffer
	if _, err := Run(exps, Options{Jobs: 2}, &clean); err != nil {
		t.Fatal(err)
	}

	for _, jobs := range jobCounts {
		armFaults(t, "99:disk-read=0.4,disk-write=0.4,disk-corrupt=0.5,disk-slow=0.1")
		c := cache.New(256)
		if err := c.SetDir(t.TempDir(), 0); err != nil {
			t.Fatal(err)
		}
		var report bytes.Buffer
		env, err := Run(exps, Options{Jobs: jobs, SolveCache: c}, &report)
		if err != nil {
			t.Fatalf("jobs=%d: disk faults failed the run: %v", jobs, err)
		}
		if report.String() != clean.String() {
			t.Fatalf("jobs=%d: report under disk faults differs from the clean run", jobs)
		}
		// The faults must actually have been exercised for this to prove
		// anything: rate-based reads fire on the cold lookups.
		if env.Failures == nil || env.Failures.DiskRetries == 0 {
			t.Fatalf("jobs=%d: plan injected nothing (failures %+v)", jobs, env.Failures)
		}
	}
}

// TestChaosSuite is the harness end to end: a real experiment subset under
// a plan combining one experiment-body panic, one solver panic and
// rate-based disk faults. The run must complete without crashing, the
// envelope must attribute every contained fault exactly (the *1 budgets
// make the counts exact: the solver panic is one degraded solve), and
// every experiment that saw no fault must render byte-identically to the
// clean run.
func TestChaosSuite(t *testing.T) {
	exps := fastSubset(t)
	var clean bytes.Buffer
	if _, err := Run(exps, Options{Jobs: 2}, &clean); err != nil {
		t.Fatal(err)
	}

	armFaults(t, "13:job-panic@cutsize*1,worker-panic@w*1,disk-read=0.3,disk-corrupt=0.5")
	c := cache.New(256)
	if err := c.SetDir(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	env, err := Run(exps, Options{Jobs: 2, SolveCache: c}, &report)
	if err == nil {
		t.Fatal("chaos run reported no failures")
	}

	if env.Failures == nil {
		t.Fatal("chaos run carries no run-level failures block")
	}
	f := *env.Failures
	if f.PanicsRecovered < 1 {
		t.Fatalf("injected experiment-body panic not recovered: %+v", f)
	}
	if f.DegradedSolves != 1 {
		t.Fatalf("DegradedSolves = %d, want exactly 1 (*1 budget)", f.DegradedSolves)
	}
	// Exact attribution: the run-level block is the sum of the
	// per-experiment blocks, and the injected body panic belongs to
	// cutsize alone.
	var sum FailureStats
	for _, rec := range env.Experiments {
		if rec.Failures != nil {
			sum.Add(*rec.Failures)
		}
		if rec.ID == "cutsize" {
			if rec.Status != StatusFailed || rec.Failures == nil || rec.Failures.PanicsRecovered != 1 {
				t.Fatalf("cutsize not attributed its injected panic: %+v", rec)
			}
		}
	}
	if sum != f {
		t.Fatalf("run-level failures %+v do not sum the per-experiment blocks %+v", f, sum)
	}

	// Fault-free experiments must be untouched: their report sections are
	// byte-identical to the clean run's.
	cleanSec := reportSections(clean.String())
	chaosSec := reportSections(report.String())
	compared := 0
	for _, rec := range env.Experiments {
		if rec.Status != StatusOK || rec.Failures != nil {
			continue
		}
		if chaosSec[rec.ID] != cleanSec[rec.ID] {
			t.Fatalf("fault-free experiment %s rendered differently under chaos:\n--- clean ---\n%.300s\n--- chaos ---\n%.300s",
				rec.ID, cleanSec[rec.ID], chaosSec[rec.ID])
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no fault-free experiment to compare — plan too aggressive for the assertion to mean anything")
	}
}

// reportSections splits a markdown report into per-experiment sections
// keyed by the ID that opens each "## <id> — ..." header.
func reportSections(report string) map[string]string {
	sections := make(map[string]string)
	for _, sec := range strings.Split(report, "\n## ")[1:] {
		header, _, _ := strings.Cut(sec, "\n")
		id := header
		if i := strings.IndexAny(header, " —"); i >= 0 {
			id = header[:i]
		}
		sections[id] = sec
	}
	return sections
}
