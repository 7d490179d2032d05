// Command experiments regenerates the paper's figures and result tables.
//
// Usage:
//
//	experiments [-id figure1,theorem5] [-jobs 4]
//	            [-cache-dir .solvecache] [-timeout 90s]
//	            [-metrics-addr 127.0.0.1:9090] [-metrics-linger 5s]
//	            [-o report.md] [-json out.json] [-list]
//
// Without -id it runs every registered experiment and emits a combined
// markdown report (testdata/suite_report.golden.md is the committed copy).
// Each invocation runs inside its own congestlb.Lab built from the flags:
// -jobs sizes the Lab's worker pool (experiments and their per-instance
// sweep jobs share it; the markdown report is byte-identical whatever the
// pool size), and -cache-dir its persistent solve-cache tier — re-runs
// with the same directory serve previously solved graphs from disk and
// skip branch-and-bound entirely. Every lower-bound graph is built from
// scratch.
//
// -timeout bounds the whole run with a context deadline. On expiry the
// run stops cooperatively — in-flight simulations at a round boundary,
// in-flight solves on the solver's batched step cadence, queued work
// before it starts — and the command exits non-zero after writing
// whatever report sections completed plus a complete JSON envelope in
// which every unfinished experiment is recorded with "cancelled": true.
//
// -cpuprofile and -memprofile write pprof profiles for the run. Both are
// written on every exit path the command controls — a clean run AND a
// -timeout cancellation — so a run that spends its budget inside a stuck
// sweep still yields the profile explaining where the time went. See
// docs/performance.md for the profiling workflow.
//
// -metrics-addr switches the Lab's observability on (congestlb.WithMetrics)
// and serves its ops endpoint on the given address for the duration of the
// run: Prometheus text at /metrics, JSON snapshots at /metrics.json and
// /spans.json, pprof under /debug/pprof/. The bound address is printed to
// stderr (pass port 0 to let the kernel pick). Because a fast suite can
// finish before a scraper ever polls, -metrics-linger keeps the endpoint
// (and the process) alive for the given extra duration after the run —
// CI's smoke test scrapes the final counters through it.
//
// -json writes the structured result envelope (schema v12) — one record
// per experiment with status, wall time, cancellation flag, instance-job
// count, its solve session's cache block (solver steps, hits, misses,
// disk-tier traffic, degraded solves), its lower-bound graph
// constructions and its recovered panics, plus run-level totals summed
// from the records and, with -metrics-addr, the run's metrics delta and
// span summary — which cmd/benchjson -experiments validates and CI
// archives.
//
// Setting CONGESTLB_FAULTS="<seed>:<plan>" arms the deterministic
// fault-injection layer for the run (chaos testing; see
// docs/robustness.md). Contained faults surface in the report's FAILED
// lines and the envelope's fault counters (panics_recovered and the cache
// blocks' degraded_solves, disk_retries and disk_quarantined); a
// malformed spec aborts the run before any experiment starts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"congestlb"
	"congestlb/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	ids := fs.String("id", "", "comma-separated experiment IDs (default: all)")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	jsonOut := fs.String("json", "", "write the JSON result envelope to this file")
	jobs := fs.Int("jobs", 0, "experiment worker-pool size (default GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "persistent solve-cache directory; re-runs serve solved graphs from disk")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration; unfinished experiments are recorded as cancelled (0 = no limit)")
	metricsAddr := fs.String("metrics-addr", "", "enable per-Lab metrics and serve the ops endpoint (/metrics, /metrics.json, /spans.json, /debug/pprof/) on this address for the run")
	metricsLinger := fs.Duration("metrics-linger", 0, "keep the -metrics-addr endpoint alive this long after the run finishes, for scrapers")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (written on clean exit and on -timeout)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit (written on clean exit and on -timeout)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Chaos harness: a fault-injection spec in CONGESTLB_FAULTS arms the
	// deterministic fault layer for the whole run (see docs/robustness.md).
	// A malformed spec is a hard error — a chaos run that silently ran
	// clean would pass for a real one.
	if spec := os.Getenv(congestlb.FaultEnv); spec != "" {
		if err := congestlb.EnableFaults(spec); err != nil {
			return fmt.Errorf("%s: %w", congestlb.FaultEnv, err)
		}
		fmt.Fprintf(os.Stderr, "experiments: fault injection armed: %s\n", spec)
	}

	// Profiling wraps everything below through defers, so the profiles
	// land on every controlled exit path: a clean run, an experiment
	// failure, and the -timeout cancellation alike (the deadline cancels
	// the run cooperatively and run() returns normally, which is exactly
	// what lets these defers fire).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *list {
		for _, e := range congestlb.AllExperiments() {
			fmt.Fprintf(w, "%-12s %s (%s)\n", e.ID, e.Title, e.PaperRef)
		}
		return nil
	}

	lab, err := congestlb.New(
		congestlb.WithJobs(*jobs),
		congestlb.WithSolveCacheDir(*cacheDir),
		congestlb.WithMetrics(*metricsAddr != ""),
	)
	if err != nil {
		return err
	}
	defer lab.Close()

	if *metricsAddr != "" {
		hs, err := serve.StartHTTP(*metricsAddr, lab.MetricsHandler())
		if err != nil {
			return fmt.Errorf("metrics-addr: %w", err)
		}
		// The bound address goes to stderr so scripts using port 0 can
		// find the endpoint without parsing the report stream.
		fmt.Fprintf(os.Stderr, "experiments: metrics endpoint on http://%s/metrics\n", hs.Addr())
		defer func() {
			// Hold the endpoint open past the run so a scraper polling on
			// an interval still sees the final counters, then drain like
			// congestlbd does: in-flight scrapes finish, stragglers are cut.
			if *metricsLinger > 0 {
				time.Sleep(*metricsLinger)
			}
			if err := hs.Shutdown(5 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: metrics endpoint:", err)
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var selected []string
	if *ids != "" {
		for _, id := range strings.Split(*ids, ",") {
			selected = append(selected, strings.TrimSpace(id))
		}
	}
	if *ids == "" {
		fmt.Fprintf(w, "# Regenerated results — Beyond Alice and Bob (PODC 2020)\n\n")
	}

	env, runErr := lab.RunExperiments(ctx, selected, w)
	if env.Cancelled > 0 {
		// The deadline fired: the report above holds only the sections that
		// completed, and the envelope flags the rest. Say so explicitly —
		// a partial result must never pass for a full one.
		runErr = errors.Join(runErr, fmt.Errorf(
			"timed out after %v: envelope is partial (%d of %d experiment(s) cancelled)",
			*timeout, env.Cancelled, len(env.Experiments)))
	}
	// A run that never started (unknown -id, closed Lab) returns a
	// zero-value envelope; writing that out would hand downstream tooling
	// a syntactically valid file with an empty schema tag where before
	// there was no file at all. The schema tag marks a real run.
	if *jsonOut != "" && env.Schema != "" {
		// Joined with runErr: a broken -json path must not hide which
		// experiments failed (or vice versa).
		runErr = errors.Join(runErr, writeEnvelope(*jsonOut, env))
	}
	return runErr
}

func writeEnvelope(path string, env congestlb.ExperimentEnvelope) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
