package runner

import (
	"bytes"
	"fmt"
	"testing"

	"congestlb/internal/experiments"
	"congestlb/internal/mis/cache"
	"congestlb/internal/obs"
)

// The golden-report determinism suite: the contract that intra-experiment
// sharding must never be observable in the markdown output. Every
// experiment runs sequentially (Jobs: 1 — one pool worker, so experiment
// and instance jobs execute in strict submission order) and at -jobs
// 2/4/8, and the combined reports must be byte-identical. This is what
// licenses running the suite at any -jobs N in CI and still diffing
// reports across commits.
//
// The heavy pair (scaling, theorem5 — the two full-reduction sweeps that
// dominate the suite's wall clock) is gated behind -short like everywhere
// else in the repository.

// goldenPartition splits the registry into the fast set and the heavy
// sweep pair.
func goldenPartition() (fast, heavy []experiments.Experiment) {
	for _, e := range experiments.All() {
		switch e.ID {
		case "scaling", "theorem5":
			heavy = append(heavy, e)
		default:
			fast = append(fast, e)
		}
	}
	return fast, heavy
}

func TestGoldenReportDeterminism(t *testing.T) {
	fast, heavy := goldenPartition()
	cases := []struct {
		name  string
		exps  []experiments.Experiment
		short bool // skipped under -short
	}{
		{name: "fast", exps: fast},
		{name: "heavy-sweeps", exps: heavy, short: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.short && testing.Short() {
				t.Skip("heavy full-reduction sweeps; skipped in -short mode")
			}
			var golden bytes.Buffer
			if _, err := Run(tc.exps, Options{Jobs: 1}, &golden); err != nil {
				t.Fatal(err)
			}
			if golden.Len() == 0 {
				t.Fatal("sequential run produced no report")
			}
			for _, jobs := range []int{2, 4, 8} {
				jobs := jobs
				t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
					var sharded bytes.Buffer
					if _, err := Run(tc.exps, Options{Jobs: jobs}, &sharded); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(golden.Bytes(), sharded.Bytes()) {
						t.Fatalf("report at -jobs %d differs from sequential run:\n%s",
							jobs, firstDiff(golden.Bytes(), sharded.Bytes()))
					}
				})
			}
		})
	}
}

// TestGoldenReportDeterminismObserved re-runs the determinism contract
// with full observability attached: a live registry (metrics recorded by
// caches, scheduler and engines; spans opened around every experiment,
// job, simulate and solve). The baseline is the plain registry-less
// sequential run, so the test pins the non-perturbation guarantee —
// enabling observability must never be observable in the markdown
// report, at any jobs count.
func TestGoldenReportDeterminismObserved(t *testing.T) {
	fast, heavy := goldenPartition()
	exps := fast
	if !testing.Short() {
		exps = append(append([]experiments.Experiment{}, fast...), heavy...)
	}
	var golden bytes.Buffer
	if _, err := Run(exps, Options{Jobs: 1}, &golden); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		reg := obs.NewRegistry()
		var observed bytes.Buffer
		env, err := Run(exps, Options{Jobs: jobs, Obs: reg}, &observed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(golden.Bytes(), observed.Bytes()) {
			t.Fatalf("observed report at -jobs %d differs from plain run:\n%s",
				jobs, firstDiff(golden.Bytes(), observed.Bytes()))
		}
		if env.Metrics == nil {
			t.Fatalf("jobs=%d: envelope carries no metrics block", jobs)
		}
		// Each solve-cache counter of the metrics delta must equal its
		// field of the cache block it rides next to.
		for _, rc := range cache.RegistryCounters {
			if got, want := env.Metrics.Counter(rc.Name), rc.Of(env.Cache); got != want {
				t.Fatalf("jobs=%d: metrics %s = %d, envelope %d", jobs, rc.Name, got, want)
			}
		}
		// Every scheduler job is one experiment or one of its instance
		// jobs, so the job counter has exactly one source of truth.
		wantJobs := int64(len(env.Experiments))
		for _, r := range env.Experiments {
			wantJobs += r.InstanceJobs
		}
		if got := env.Metrics.Counter(obs.MSchedJobs); got != wantJobs {
			t.Fatalf("jobs=%d: metrics sched jobs %d, want %d experiments + instance jobs", jobs, got, wantJobs)
		}
		if len(env.Spans) == 0 {
			t.Fatalf("jobs=%d: envelope carries no span summary", jobs)
		}
	}
}

// TestGoldenReportMatchesRunAll pins the Jobs:1 golden baseline itself to
// the legacy sequential aggregator, closing the chain
// RunAll == Run(Jobs:1) == Run(Jobs:N).
func TestGoldenReportMatchesRunAll(t *testing.T) {
	fast, _ := goldenPartition()
	var legacy bytes.Buffer
	for _, e := range fast {
		fmt.Fprintf(&legacy, "## %s — %s\n\n*Reproduces: %s*\n\n", e.ID, e.Title, e.PaperRef)
		if err := e.Run(experiments.NewCtx(&legacy, nil)); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&legacy, "\n")
	}
	var pooled bytes.Buffer
	if _, err := Run(fast, Options{Jobs: 1}, &pooled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), pooled.Bytes()) {
		t.Fatalf("Jobs:1 runner output diverged from inline sequential execution:\n%s",
			firstDiff(legacy.Bytes(), pooled.Bytes()))
	}
}

// firstDiff renders the first divergence between two reports with a
// little context, so a determinism failure points at the guilty
// experiment instead of dumping two full suites.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	at := n // first differing index; n if one is a prefix of the other
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			at = i
			break
		}
	}
	if at == n && len(a) == len(b) {
		return "(no byte difference)"
	}
	lo := at - 120
	if lo < 0 {
		lo = 0
	}
	hiA, hiB := at+120, at+120
	if hiA > len(a) {
		hiA = len(a)
	}
	if hiB > len(b) {
		hiB = len(b)
	}
	return fmt.Sprintf("first difference at byte %d\n--- sequential ---\n…%s…\n--- sharded ---\n…%s…",
		at, a[lo:hiA], b[lo:hiB])
}
