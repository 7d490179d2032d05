// Command benchjson converts `go test -bench` output into a stable JSON
// baseline, so CI can archive per-experiment performance numbers and humans
// can diff them across commits:
//
//	go test -bench=. -benchtime=3x -run=NONE . | benchjson -o BENCH_0001.json
//
// Only benchmark result lines are consumed; everything else (goos/goarch
// headers, PASS/ok trailers) is ignored. Benchmarks are emitted sorted by
// name, one object per benchmark with ns/op, B/op and allocs/op, plus a
// metrics map holding every other reported unit (b.ReportMetric values such
// as steps/op). Repeated result lines of one benchmark (`go test -count N`)
// fold into one object holding the median of every unit, the sample count
// and the lowest and highest ns/op.
//
// It also consumes the experiment runner's JSON result envelope
// (cmd/experiments -json):
//
//	benchjson -experiments experiments.json [-require-disk-hits]
//	benchjson -experiments http://host:port/v1/experiments/last -bearer key
//
// prints a per-experiment summary (status, wall time, solver work, cache
// traffic including the persistent disk tier) and exits non-zero if the
// envelope is malformed or any experiment finished with a non-ok status —
// the CI gate for the sharded experiment smoke run. The -experiments
// value may be an http(s) URL, in which case the envelope is fetched live
// from a running congestlbd (-bearer supplies the tenant API key). -require-disk-hits
// additionally fails when the run served nothing from the disk tier, which
// is how CI asserts that a warm -cache-dir re-run actually skipped
// branch-and-bound.
//
// Every experiment record carries its solve session's cache block and
// its recovered panics. The run level must equal the sum of the records
// in every cache counter except evictions and entries (snapshots of the
// cache), and in panics_recovered. Fault counters (panics, degraded
// solves, disk retries, quarantined entries) are printed where they are
// non-zero. For chaos runs (cmd/experiments under CONGESTLB_FAULTS),
// -allow-failed tolerates experiments that finished non-ok — the
// structural invariants still gate — and -require-failures fails unless
// the run actually contained at least one fault, so a chaos job that
// silently ran clean cannot pass.
//
// An envelope written by an observed run (cmd/experiments -metrics-addr)
// carries the run's metrics delta and span summary. When present, both are
// printed, and each solve-cache registry counter (cache.RegistryCounters)
// must equal its cache block field, since both are booked by the same
// call.
// -require-metrics fails when the block is absent (the observed-smoke
// assertion), and -scrape URL additionally fetches a live /metrics.json
// snapshot from a still-running (or -metrics-linger'ing) process and
// verifies the scraped cumulative counters cover at least the envelope's
// run delta — proving the ops endpoint serves the same registry the
// envelope snapshotted.
//
// Finally, -compare turns two archived baselines into an enforced
// trajectory instead of an archive:
//
//	benchjson -compare [-threshold 0.25] [-floor 1000000] old.json new.json
//
// prints per-benchmark ns/op and B/op deltas (medians, for baselines
// recorded with -count) and exits non-zero if any
// benchmark regressed by more than the threshold (default 0.25 = +25%).
// -floor exempts benchmarks whose old ns/op is below the given value from
// the ns/op gate: at a 1-iteration smoke, microsecond-scale timings are
// noise-dominated and would trip any threshold spuriously. B/op is
// deterministic and gates regardless of the floor.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"congestlb/internal/mis/cache"
	"congestlb/internal/obs"
	"congestlb/internal/runner"
)

// Result is one benchmark measurement. For a benchmark run more than once
// (-count N), every unit holds the median over the samples, and Samples,
// MinNsPerOp and MaxNsPerOp record how many there were and their ns/op
// range; all three are absent for a single sample.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds the remaining units by name ("steps/op": 2977). They
	// are archived only: -compare gates on ns/op and B/op alone.
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Samples    int                `json:"samples,omitempty"`
	MinNsPerOp float64            `json:"min_ns_per_op,omitempty"`
	MaxNsPerOp float64            `json:"max_ns_per_op,omitempty"`
}

// parseLine parses one `go test -bench` result line, reporting ok=false
// for non-benchmark lines.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	// Strip the -<GOMAXPROCS> suffix the bench runner appends on
	// multi-core machines (BenchmarkExpScaling/n=192-8), so baselines
	// recorded on different core counts stay comparable. Only an
	// all-digit suffix is a cpu count; sub-benchmark names keep their
	// own dashes.
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := Result{Name: name, Iterations: iters}
	// The remainder is unit pairs: value unit value unit ...
	for i := 2; i+1 < len(fields); i += 2 {
		value, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return Result{}, false
			}
			r.NsPerOp = v
		case "B/op":
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return Result{}, false
			}
			r.BytesPerOp = v
		case "allocs/op":
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return Result{}, false
			}
			r.AllocsPerOp = v
		default:
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return Result{}, false
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}

// convert reads bench output from r and writes the JSON baseline to w.
func convert(r io.Reader, w io.Writer) error {
	samples := make(map[string][]Result)
	scanner := bufio.NewScanner(r)
	for scanner.Scan() {
		if res, ok := parseLine(scanner.Text()); ok {
			samples[res.Name] = append(samples[res.Name], res)
		}
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines found in input")
	}
	results := make([]Result, 0, len(samples))
	for _, runs := range samples {
		results = append(results, fold(runs))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// fold merges the samples of one benchmark into one Result: the median of
// every unit (the mean of the middle two for an even count), the sample
// count and the ns/op range. One sample is returned as it is.
func fold(runs []Result) Result {
	if len(runs) == 1 {
		return runs[0]
	}
	median := func(unit func(Result) float64) float64 {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = unit(r)
		}
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			return vals[mid]
		}
		return (vals[mid-1] + vals[mid]) / 2
	}
	out := Result{
		Name:        runs[0].Name,
		Iterations:  int64(median(func(r Result) float64 { return float64(r.Iterations) })),
		NsPerOp:     median(func(r Result) float64 { return r.NsPerOp }),
		BytesPerOp:  int64(median(func(r Result) float64 { return float64(r.BytesPerOp) })),
		AllocsPerOp: int64(median(func(r Result) float64 { return float64(r.AllocsPerOp) })),
		Samples:     len(runs),
		MinNsPerOp:  runs[0].NsPerOp,
		MaxNsPerOp:  runs[0].NsPerOp,
	}
	for _, r := range runs {
		out.MinNsPerOp = min(out.MinNsPerOp, r.NsPerOp)
		out.MaxNsPerOp = max(out.MaxNsPerOp, r.NsPerOp)
		for unit := range r.Metrics {
			if _, done := out.Metrics[unit]; done {
				continue
			}
			if out.Metrics == nil {
				out.Metrics = make(map[string]float64)
			}
			out.Metrics[unit] = median(func(r Result) float64 { return r.Metrics[unit] })
		}
	}
	return out
}

// checkEnvelope validates an experiment result envelope: well-formed JSON
// with the expected schema, and every experiment ok. A human-readable
// summary is written to w either way; a non-nil error means CI must fail.
// With requireDiskHits, a run that served nothing from the persistent
// disk tier also fails — the warm-cache CI smoke's assertion. With
// requireMetrics, an envelope missing the metrics block fails; with a
// non-empty scrapeURL, a live /metrics.json snapshot is fetched and
// cross-checked against the envelope's run delta.
//
// allowFailed is the chaos-CI switch: failed experiments are reported but
// do not fail the check — the structural invariants (failure counts,
// run-level sums, metric consistency) still gate. requireFailures fails
// unless the run recovered a panic or counted a degraded solve, a disk
// retry or a quarantined entry, the assertion that a chaos run actually
// injected something.
func checkEnvelope(r io.Reader, w io.Writer, requireDiskHits, requireMetrics, allowFailed, requireFailures bool, scrapeURL string) error {
	var env runner.Envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return fmt.Errorf("benchjson: envelope: %w", err)
	}
	if env.Schema != runner.Schema {
		return fmt.Errorf("benchjson: envelope schema %q, want %q", env.Schema, runner.Schema)
	}
	fmt.Fprintf(w, "%d experiment(s), jobs=%d, wall %.0f ms (sequential %.0f ms), cache %d hit / %d miss\n",
		len(env.Experiments), env.Jobs, env.WallMS, env.SequentialMS,
		env.Cache.Hits, env.Cache.Misses)
	fmt.Fprintf(w, "disk tier: %d hit / %d miss, %d written, %d evicted\n",
		env.Cache.DiskHits, env.Cache.DiskMisses, env.Cache.DiskWrites, env.Cache.DiskEvictions)
	fmt.Fprintf(w, "lbgraph: %d construction(s)\n", env.LBGraph.Misses)
	var failed []string
	cancelled := 0
	var sum cache.Stats
	var panics uint64
	for _, e := range env.Experiments {
		status := e.Status
		if e.Cancelled {
			status += " (cancelled)"
			cancelled++
		}
		fmt.Fprintf(w, "  %-12s %-6s %8.1f ms  %10d steps  %d hit / %d miss  %d builds  %d instance jobs\n",
			e.ID, status, e.WallMS, e.Cache.StepsSolved, e.Cache.Hits, e.Cache.Misses,
			e.LBGraphBuilds, e.InstanceJobs)
		if f := faults(e.PanicsRecovered, e.Cache); f != "" {
			fmt.Fprintf(w, "  %-12s faults: %s\n", "", f)
		}
		sum.Add(e.Cache)
		panics += e.PanicsRecovered
		if e.Status != runner.StatusOK {
			failed = append(failed, fmt.Sprintf("%s: %s", e.ID, e.Error))
		}
	}
	// The run level must be exactly the sum of the records — both
	// directions: run-level traffic with no record behind it is as wrong
	// as a record missing from the run level. Evictions and entries are
	// snapshots of the cache, which no record carries.
	sum.Evictions, sum.Entries = env.Cache.Evictions, env.Cache.Entries
	if sum != env.Cache {
		return fmt.Errorf("benchjson: run-level cache block %+v does not sum the per-experiment blocks %+v",
			env.Cache, sum)
	}
	if panics != env.PanicsRecovered {
		return fmt.Errorf("benchjson: run-level panics_recovered %d does not sum the per-experiment %d",
			env.PanicsRecovered, panics)
	}
	f := faults(env.PanicsRecovered, env.Cache)
	if f != "" {
		fmt.Fprintf(w, "faults (run): %s\n", f)
	}
	if requireFailures && f == "" {
		return fmt.Errorf("benchjson: run reported no contained failures (chaos run expected)")
	}
	if env.Failed != len(failed) {
		return fmt.Errorf("benchjson: envelope claims %d failure(s) but lists %d", env.Failed, len(failed))
	}
	if env.Cancelled != cancelled {
		return fmt.Errorf("benchjson: envelope claims %d cancellation(s) but flags %d", env.Cancelled, cancelled)
	}
	if len(failed) > 0 && !allowFailed {
		return fmt.Errorf("benchjson: %d experiment(s) not ok:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	if len(failed) > 0 {
		fmt.Fprintf(w, "%d failed experiment(s) tolerated (-allow-failed)\n", len(failed))
	}
	if requireDiskHits && env.Cache.DiskHits == 0 {
		return fmt.Errorf("benchjson: run reported no disk-tier hits (warm cache expected)")
	}
	if requireMetrics && env.Metrics == nil {
		return fmt.Errorf("benchjson: envelope carries no metrics block (observed run expected)")
	}
	if env.Metrics != nil {
		if err := checkMetrics(env, w); err != nil {
			return err
		}
	}
	if scrapeURL != "" {
		if env.Metrics == nil {
			return fmt.Errorf("benchjson: -scrape needs an envelope with a metrics block")
		}
		if err := checkScrape(env, scrapeURL, w); err != nil {
			return err
		}
	}
	return nil
}

// faults renders the contained-fault counters on one line, or "" when
// all four are zero.
func faults(panics uint64, s cache.Stats) string {
	if panics == 0 && s.DegradedSolves == 0 && s.DiskRetries == 0 && s.DiskQuarantined == 0 {
		return ""
	}
	return fmt.Sprintf("%d panic(s) recovered, %d degraded solve(s), %d disk retry(ies), %d quarantined",
		panics, s.DegradedSolves, s.DiskRetries, s.DiskQuarantined)
}

// checkMetrics prints the metrics/span block and checks each solve-cache
// registry counter against its field of the envelope's cache block: the
// cache books every event into both with one call, so a single observed
// run's deltas must match exactly.
func checkMetrics(env runner.Envelope, w io.Writer) error {
	m := *env.Metrics
	fmt.Fprintf(w, "metrics delta: %d counter(s), %d gauge(s), %d histogram(s); %d span name(s)\n",
		len(m.Counters), len(m.Gauges), len(m.Histograms), len(env.Spans))
	names := make([]string, 0, len(m.Counters))
	for name := range m.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %d\n", name, m.Counters[name])
	}
	for _, sp := range env.Spans {
		fmt.Fprintf(w, "  span %-27s %6d call(s)  %10.1f ms total  %8.1f ms max\n",
			sp.Name, sp.Count, float64(sp.TotalNS)/1e6, float64(sp.MaxNS)/1e6)
	}
	// (sched_job_panics has no envelope twin: the envelope counts body
	// panics the scheduler never sees, so the two are deliberately not
	// cross-checked.)
	for _, rc := range cache.RegistryCounters {
		if got, want := m.Counter(rc.Name), rc.Of(env.Cache); got != want {
			return fmt.Errorf("benchjson: metrics %s = %d disagrees with the envelope's cache block (%d)",
				rc.Name, got, want)
		}
	}
	if len(env.Spans) == 0 {
		return fmt.Errorf("benchjson: observed envelope recorded no spans (at least the run span is expected)")
	}
	fmt.Fprintf(w, "metrics block consistent with the cache block (%d check(s))\n", len(cache.RegistryCounters))
	return nil
}

// checkScrape fetches a live /metrics.json snapshot and verifies the
// scraped cumulative counters cover at least the envelope's run delta.
// ≥, not ==: the scrape is process-cumulative (and may land after further
// traffic), while the envelope records one run's delta.
func checkScrape(env runner.Envelope, url string, w io.Writer) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("benchjson: scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("benchjson: scrape %s: %s", url, resp.Status)
	}
	var live obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		return fmt.Errorf("benchjson: scrape %s: %w", url, err)
	}
	short := 0
	for name, delta := range env.Metrics.Counters {
		if live.Counter(name) < delta {
			fmt.Fprintf(w, "  scrape: %s = %d < envelope delta %d\n", name, live.Counter(name), delta)
			short++
		}
	}
	if short > 0 {
		return fmt.Errorf("benchjson: scraped snapshot misses %d counter(s) the envelope recorded", short)
	}
	fmt.Fprintf(w, "scraped %s: all %d envelope counter(s) covered\n", url, len(env.Metrics.Counters))
	return nil
}

// openEnvelope opens the -experiments source: a local envelope file, or —
// when the value is an http(s) URL — a live congestlbd endpoint
// (GET /v1/experiments/last serves the bare envelope). bearer, when
// non-empty, is sent as the Authorization bearer token; congestlbd needs
// it to resolve the tenant. The caller closes the reader.
func openEnvelope(src, bearer string) (io.ReadCloser, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		return os.Open(src)
	}
	req, err := http.NewRequest(http.MethodGet, src, nil)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", src, err)
	}
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", src, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("benchjson: %s: %s", src, resp.Status)
	}
	return resp.Body, nil
}

// readBaseline loads a benchjson baseline file (the convert output).
func readBaseline(path string) (map[string]Result, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	byName := make(map[string]Result, len(results))
	names := make([]string, 0, len(results))
	for _, r := range results {
		if _, dup := byName[r.Name]; !dup {
			names = append(names, r.Name)
		}
		byName[r.Name] = r
	}
	return byName, names, nil
}

// pctDelta formats new relative to old as a signed percentage.
func pctDelta(oldV, newV float64) string {
	if oldV == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(newV-oldV)/oldV)
}

// compareBaselines diffs two baselines benchmark by benchmark and fails on
// any ns/op or B/op regression beyond threshold (a fraction: 0.25 = +25%).
// Benchmarks present in only one file are reported but never fail the
// comparison — the suite is allowed to grow and shrink. Benchmarks whose
// old ns/op is below floor are exempt from the ns/op gate only: at the
// 1-iteration CI smoke a microsecond-scale bench's timing is
// noise-dominated (a single cold-cache miss reads as a 3x "regression"),
// but B/op stays deterministic and gates at every size.
func compareBaselines(oldPath, newPath string, threshold, floor float64, w io.Writer) error {
	oldBy, oldNames, err := readBaseline(oldPath)
	if err != nil {
		return err
	}
	newBy, newNames, err := readBaseline(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-32s %14s %14s %9s %12s %12s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ", "old B/op", "new B/op", "Δ")
	var regressions []string
	consumed := make(map[string]bool, len(oldNames))
	for _, name := range oldNames {
		oldR := oldBy[name]
		newR, ok := newBy[name]
		matched := name
		if !ok {
			// A benchmark promoted to sub-benchmarks keeps its whole-run
			// measurement under <name>/suite; compare against that so the
			// trajectory survives the rename.
			matched = name + "/suite"
			newR, ok = newBy[matched]
		}
		if !ok {
			fmt.Fprintf(w, "%-32s %14.0f %14s (removed)\n", name, oldR.NsPerOp, "-")
			continue
		}
		consumed[matched] = true
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %9s %12d %12d %9s\n",
			name, oldR.NsPerOp, newR.NsPerOp, pctDelta(oldR.NsPerOp, newR.NsPerOp),
			oldR.BytesPerOp, newR.BytesPerOp,
			pctDelta(float64(oldR.BytesPerOp), float64(newR.BytesPerOp)))
		if oldR.NsPerOp >= floor && newR.NsPerOp > oldR.NsPerOp*(1+threshold) {
			regressions = append(regressions, fmt.Sprintf("%s: ns/op %s", name, pctDelta(oldR.NsPerOp, newR.NsPerOp)))
		}
		if oldR.BytesPerOp > 0 && float64(newR.BytesPerOp) > float64(oldR.BytesPerOp)*(1+threshold) {
			regressions = append(regressions, fmt.Sprintf("%s: B/op %s", name, pctDelta(float64(oldR.BytesPerOp), float64(newR.BytesPerOp))))
		}
	}
	for _, name := range newNames {
		if _, ok := oldBy[name]; !ok && !consumed[name] {
			fmt.Fprintf(w, "%-32s %14s %14.0f (new)\n", name, "-", newBy[name].NsPerOp)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchjson: %d regression(s) beyond +%.0f%%:\n  %s",
			len(regressions), threshold*100, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "no regression beyond +%.0f%%\n", threshold*100)
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	experimentsEnv := flag.String("experiments", "", "validate an experiment result envelope instead of converting bench output: a file (cmd/experiments -json) or an http(s) URL (congestlbd /v1/experiments/last)")
	bearer := flag.String("bearer", "", "with -experiments URL: send this API key as the Authorization bearer token")
	requireDiskHits := flag.Bool("require-disk-hits", false, "with -experiments: fail unless the run served at least one solve from the disk tier")
	requireMetrics := flag.Bool("require-metrics", false, "with -experiments: fail unless the envelope carries the metrics block")
	allowFailed := flag.Bool("allow-failed", false, "with -experiments: tolerate failed experiments (chaos runs); structural invariants still gate")
	requireFailures := flag.Bool("require-failures", false, "with -experiments: fail unless the run recovered a panic or counted a degraded solve, disk retry or quarantined entry")
	scrape := flag.String("scrape", "", "with -experiments: fetch this /metrics.json URL and verify the live counters cover the envelope's delta")
	compare := flag.Bool("compare", false, "compare two baseline files (old.json new.json) and fail on regressions beyond -threshold")
	threshold := flag.Float64("threshold", 0.25, "with -compare: allowed ns/op and B/op growth as a fraction (0.25 = +25%)")
	floor := flag.Float64("floor", 0, "with -compare: exempt benchmarks whose old ns/op is below this from the ns/op gate (1-iteration timing noise; B/op still gates)")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if *compare {
		args := flag.Args()
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two baseline files: old.json new.json")
			os.Exit(1)
		}
		if err := compareBaselines(args[0], args[1], *threshold, *floor, w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *experimentsEnv != "" {
		f, err := openEnvelope(*experimentsEnv, *bearer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := checkEnvelope(f, w, *requireDiskHits, *requireMetrics, *allowFailed, *requireFailures, *scrape); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := convert(os.Stdin, w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
