// Command bench is the end-to-end and per-layer benchmark of congestlb:
// the experiment suite on a fresh Lab, and congestlbd's /v1/reduce and
// /v1/solve over loopback HTTP. It runs one workload per process as a
// closed loop, checks every answer, and prints each metric by name with
// its unit, then one JSON result line. See README.md.
//
//	bash bench/run.sh --workload solve-mix --seed 1 --seconds 25 --trace 0
//	go run . -summarize ../.bench_build/spans/solve-mix-seed1.jsonl   (from bench/)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sizes are a run's operation counts. Every workload and probe is sized
// from one of the two presets below.
type sizes struct {
	setups       int // set-ups per run; setup_s is their median
	maxOps       int // cap on timed operations (0 = until --seconds)
	suiteWarmup  int
	reduceWarmup int
	mixUniverse  int
	mixWarmup    int
	hardWarmup   int

	// Per-layer probes (traced runs only).
	labOpens    int // New+Close pairs
	builds      int // BuildInstance calls per family
	instances   int // reduce instances run through the engines and the hook
	engineReps  int // timed runs per instance and engine
	batchReps   int // RunBatch / 8-solo-run pairs
	misGraphs   int // solve-hard graphs replayed at 1 and N workers
	cacheGraphs int // graphs replayed through the private and shared tiers
	suiteRuns   int // suite runs for the runner figures
	serveOps    int // traced solve-mix requests after a full warm-up
}

// fullSizes is what the benchmark runs. The solve-mix warm-up fills the
// per-tenant LRUs (256 entries) and the shared tier (1024) before timing.
var fullSizes = sizes{
	setups: 3, suiteWarmup: 2, reduceWarmup: 8,
	mixUniverse: 2048, mixWarmup: 20000, hardWarmup: 32,
	labOpens: 64, builds: 16, instances: 4, engineReps: 3, batchReps: 20,
	misGraphs: 60, cacheGraphs: 256, suiteRuns: 3, serveOps: 10000,
}

// tinySizes runs every path once or twice, for the smoke test.
var tinySizes = sizes{
	setups: 2, maxOps: 2, suiteWarmup: 1, reduceWarmup: 1,
	mixUniverse: 64, mixWarmup: 32, hardWarmup: 1,
	labOpens: 2, builds: 2, instances: 1, engineReps: 1, batchReps: 2,
	misGraphs: 2, cacheGraphs: 4, suiteRuns: 1, serveOps: 16,
}

// maxSeconds caps --seconds so that a run, with its set-ups and probes,
// stays well inside three minutes.
const maxSeconds = 120

// shutdownGrace bounds how long an HTTP shutdown waits for requests.
const shutdownGrace = 5 * time.Second

// run is the state one benchmark process shares across set-ups.
type run struct {
	seed  int64
	nproc int
	sizes sizes

	mu       sync.Mutex
	suiteSHA string         // report hash every suite run must match
	weights  []atomic.Int64 // solve-mix optimum per universe graph (0 = not seen)
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // span file; "" = .bench_build/spans/<workload>-seed<seed>.jsonl
	sizes    sizes
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traceFlag int
	var summarizePath, spreadPaths, benchJSON string
	flag.StringVar(&o.workload, "workload", "", "workload to run: suite, reduce, solve-mix or solve-hard")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: record spans and report the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	flag.StringVar(&summarizePath, "summarize", "", "print self times and per-layer metrics of a span file, then exit")
	flag.StringVar(&spreadPaths, "spread", "", "comma-separated files of result lines (one workload, one set each): print each metric's median and spread, and compare two sets")
	flag.StringVar(&benchJSON, "benchmark-json", "BENCHMARK.json", "BENCHMARK.json with the metric bounds, for -spread")
	flag.Parse()
	o.trace = traceFlag == 1
	o.sizes = fullSizes

	var err error
	switch {
	case summarizePath != "":
		err = summarizeFile(os.Stdout, summarizePath)
	case spreadPaths != "":
		err = spreadReport(os.Stdout, benchJSON, strings.Split(spreadPaths, ","))
	default:
		// The watchdog turns a hung run into a failure with no result
		// line, within the three minutes a run may take.
		watchdog := time.AfterFunc(170*time.Second, func() {
			fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s, aborting")
			os.Exit(3)
		})
		var res result
		res, err = benchmark(os.Stdout, o)
		watchdog.Stop()
		if err == nil {
			line, merr := json.Marshal(res)
			if merr != nil {
				err = merr
			} else {
				fmt.Println(string(line))
				if !res.Correct || res.Failed > 0 {
					os.Exit(1)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// benchmark runs one workload: set-ups, the timed closed loop and, on a
// traced run, the per-layer probes. Human-readable lines go to out.
func benchmark(out io.Writer, o options) (result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds < 1 || o.seconds > maxSeconds {
		return result{}, fmt.Errorf("--seconds %d out of range 1..%d", o.seconds, maxSeconds)
	}
	r := &run{seed: o.seed, nproc: runtime.NumCPU(), sizes: o.sizes}
	clients := min(w.clients, r.nproc)
	warmup := w.warmup(o.sizes)
	fmt.Fprintf(out, "workload %s  seed %d  clients %d  nproc %d  %s\n", w.name, o.seed, clients, r.nproc, runtime.Version())

	// Set up several times and keep the last; setup_s is the median.
	var setups []float64
	var b bench
	for k := 0; k < o.sizes.setups; k++ {
		t0 := time.Now()
		var err error
		if b, err = w.open(r); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		res := drive(b, clients, 0, warmup, time.Time{}, nil, "", false)
		setups = append(setups, time.Since(t0).Seconds())
		if res.failed > 0 {
			b.close()
			return result{}, fmt.Errorf("set-up: %d of %d warm-up operations failed: %v", res.failed, res.attempted, errors.Join(res.errs...))
		}
		if k < o.sizes.setups-1 {
			if err := b.close(); err != nil {
				return result{}, fmt.Errorf("set-up: close: %w", err)
			}
		}
		// Start the next set-up, and the timed phase, without the
		// previous set-up's garbage.
		runtime.GC()
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	stop := time.Now().Add(time.Duration(o.seconds) * time.Second)
	loop := drive(b, clients, warmup, o.sizes.maxOps, stop, tr, "op", false)
	notes := b.notes()
	if err := b.close(); err != nil {
		return result{}, fmt.Errorf("close: %w", err)
	}
	for _, err := range loop.errs {
		fmt.Fprintln(out, "FAILED", err)
	}
	res := result{
		Correct:   loop.failed == 0,
		Attempted: loop.attempted,
		Failed:    loop.failed,
		Metrics:   map[string]metric{},
	}
	if loop.attempted == 0 || len(loop.latMS) == 0 {
		return res, fmt.Errorf("no operation completed in %d s", o.seconds)
	}

	if o.trace {
		if err := probe(r, tr); err != nil {
			return res, fmt.Errorf("probes: %w", err)
		}
		path := o.spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		}
		if err := tr.write(path); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		// Summarise from the file, so the result is exactly what
		// -summarize prints for it.
		spans, err := readSpans(path)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(spans), path)
		sum, err := summarize(spans)
		if err != nil {
			return res, err
		}
		printSelfTimes(out, sum.self)
		for _, m := range sum.metrics {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
		printMetrics(out, res.Metrics)
		return res, nil
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return res, err
	}
	sorted := sortedCopy(loop.latMS)
	tail := percentile(sorted, w.tail)
	n := len(sorted)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["ops_per_s"] = metric{float64(n) / loop.wall.Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(sorted, 50), "ms"}
	res.Metrics["latency_tail_ms"] = metric{tail, "ms"}
	res.Metrics["peak_rss_mib"] = metric{rss, "MiB"}
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "%-30s %.6g ms  (the tail: p%g, %d of %d samples beyond it)\n",
		fmt.Sprintf("latency_p%g_ms", w.tail), tail, w.tail, beyond(n, w.tail), n)
	if rule := tailPercentile(n); rule < w.tail {
		fmt.Fprintf(out, "warning: %d samples leave only %d beyond p%g (the tail rule allows p%g); run longer\n", n, beyond(n, w.tail), w.tail, rule)
	}
	fmt.Fprintf(out, "%-30s %.6g  (%d failed of %d attempted)\n", "failed_ratio", float64(loop.failed)/float64(loop.attempted), loop.failed, loop.attempted)
	fmt.Fprintf(out, "%-30s %v\n", "setup_s.each", setups)
	for _, note := range notes {
		fmt.Fprintln(out, note)
	}
	return res, nil
}

// printMetrics prints one "name value unit" line per metric, by name.
func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-30s %s %s\n", name, strconv.FormatFloat(ms[name].Value, 'f', -1, 64), ms[name].Unit)
	}
}
