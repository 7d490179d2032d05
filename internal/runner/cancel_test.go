package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"congestlb/internal/experiments"
	"congestlb/internal/mis/cache"
)

// TestRunCtxCancelMidRun drives a deterministic mid-run cancellation with
// synthetic experiments: the first experiment signals once it is running
// and then blocks on its context; the rest sit queued behind it on a
// single-worker pool. After the cancel, the envelope must still carry one
// record per experiment, flag every unfinished one cancelled, and the
// in-flight experiment must have observed the context rather than being
// abandoned.
func TestRunCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{})
	exps := []experiments.Experiment{
		{ID: "blocker", Title: "B", PaperRef: "ref", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "blocker started")
			close(running)
			<-w.Context().Done()
			return w.Context().Err()
		}},
		{ID: "queued1", Title: "Q1", PaperRef: "ref", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "queued1 body")
			return nil
		}},
		{ID: "queued2", Title: "Q2", PaperRef: "ref", Run: func(w *experiments.Ctx) error {
			fmt.Fprintln(w, "queued2 body")
			return nil
		}},
	}
	go func() {
		<-running
		cancel()
	}()
	var report bytes.Buffer
	env, err := RunCtx(ctx, exps, Options{Jobs: 1}, &report)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if len(env.Experiments) != 3 {
		t.Fatalf("envelope lost records: %d", len(env.Experiments))
	}
	if env.Cancelled != 3 || env.Failed != 3 || env.OK != 0 {
		t.Fatalf("cancelled=%d failed=%d ok=%d, want 3/3/0", env.Cancelled, env.Failed, env.OK)
	}
	for _, r := range env.Experiments {
		if !r.Cancelled || r.Status != StatusFailed {
			t.Fatalf("%s: %+v not flagged as a cancellation", r.ID, r)
		}
		if !strings.Contains(r.Error, "context canceled") {
			t.Fatalf("%s error %q does not carry the context error", r.ID, r.Error)
		}
	}
	out := report.String()
	if !strings.Contains(out, "blocker started") {
		t.Fatalf("in-flight experiment's partial output lost:\n%s", out)
	}
	if strings.Contains(out, "queued1 body") || strings.Contains(out, "queued2 body") {
		t.Fatalf("queued experiment body ran after cancellation:\n%s", out)
	}
	// Every record still renders a section with a FAILED marker.
	for _, id := range []string{"blocker", "queued1", "queued2"} {
		if !strings.Contains(out, "## "+id) {
			t.Fatalf("report missing section for %s:\n%s", id, out)
		}
	}
}

// TestRunCtxBackgroundMatchesRun pins the inert path: RunCtx with a
// background context produces byte-identical markdown to Run.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	exps := fastSubset(t)
	var plain, ctxed bytes.Buffer
	if _, err := Run(exps, Options{Jobs: 2}, &plain); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtx(context.Background(), exps, Options{Jobs: 2}, &ctxed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), ctxed.Bytes()) {
		t.Fatal("background-context run diverged from plain run")
	}
}

// TestGoldenReportThroughLabCaches is the golden-report determinism suite
// run the way a congestlb.Lab runs it: a private solve cache, a
// caller-owned scheduler and an explicit background context. One cache
// serves the sequential baseline and every sharded rerun — exactly a
// Lab's lifecycle — and the markdown must stay byte-identical at every
// pool size.
func TestGoldenReportThroughLabCaches(t *testing.T) {
	fast, _ := goldenPartition()
	solve := cache.New(0)
	labOpts := func(sched *experiments.Scheduler) Options {
		return Options{SolveCache: solve, Scheduler: sched}
	}

	seqSched := experiments.NewScheduler(1)
	var golden bytes.Buffer
	_, err := RunCtx(context.Background(), fast, labOpts(seqSched), &golden)
	seqSched.Close()
	if err != nil {
		t.Fatal(err)
	}
	if golden.Len() == 0 {
		t.Fatal("sequential Lab-style run produced no report")
	}
	for _, jobs := range []int{2, 4, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			sched := experiments.NewScheduler(jobs)
			defer sched.Close()
			var sharded bytes.Buffer
			if _, err := RunCtx(context.Background(), fast, labOpts(sched), &sharded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(golden.Bytes(), sharded.Bytes()) {
				t.Fatalf("Lab-style report at jobs=%d diverged:\n%s",
					jobs, firstDiff(golden.Bytes(), sharded.Bytes()))
			}
		})
	}
	// The private cache absorbed the traffic.
	if st := solve.Stats(); st.Hits+st.Misses == 0 {
		t.Fatalf("private solve cache saw no traffic: %+v", st)
	}
}

// TestRunCtxScheduledEnvelopeJobs pins that a caller-owned scheduler's
// size is what the envelope reports.
func TestRunCtxScheduledEnvelopeJobs(t *testing.T) {
	sched := experiments.NewScheduler(3)
	defer sched.Close()
	env, err := RunCtx(context.Background(), nil, Options{Jobs: 99, Scheduler: sched}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if env.Jobs != 3 {
		t.Fatalf("envelope jobs = %d, want the scheduler's 3", env.Jobs)
	}
}

// TestUncachedBuildsEnvelopeAttribution: every build is uncached, so the
// run-level lbgraph block must equal the sum of the per-experiment
// construction counts, with 0 hits — the run has no build cache to diff
// and no cache entries to report.
func TestUncachedBuildsEnvelopeAttribution(t *testing.T) {
	exps, err := experiments.Select([]string{"figure1", "codes"})
	if err != nil {
		t.Fatal(err)
	}
	env, err := RunCtx(context.Background(), exps, Options{Jobs: 2}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var builds int64
	for _, r := range env.Experiments {
		builds += r.LBGraphBuilds
	}
	if env.LBGraph.Hits != 0 || env.LBGraph.Misses != builds {
		t.Fatalf("run-level lbgraph %d/%d, want 0 hits and the per-experiment sum %d",
			env.LBGraph.Hits, env.LBGraph.Misses, builds)
	}
	if builds == 0 {
		t.Fatal("no build traffic recorded at all")
	}
	block, err := json.Marshal(env.LBGraph)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(block), "entries") {
		t.Fatalf("uncached run reports cache entries: %s", block)
	}
}

// TestRunCtxNonCancelFailureNotFlagged ensures ordinary failures are not
// mislabelled as cancellations.
func TestRunCtxNonCancelFailureNotFlagged(t *testing.T) {
	boom := errors.New("real assertion failure")
	exps := []experiments.Experiment{
		{ID: "bad", Title: "B", PaperRef: "ref", Run: func(w *experiments.Ctx) error { return boom }},
	}
	env, err := RunCtx(context.Background(), exps, Options{Jobs: 1}, io.Discard)
	if err == nil {
		t.Fatal("failure did not surface")
	}
	if env.Cancelled != 0 || env.Experiments[0].Cancelled {
		t.Fatalf("plain failure flagged cancelled: %+v", env.Experiments[0])
	}
}
