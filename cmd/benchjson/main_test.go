package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"congestlb/internal/mis/cache"
	"congestlb/internal/obs"
	"congestlb/internal/runner"
)

const sample = `goos: linux
goarch: amd64
pkg: congestlb
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkExpFigure1     	       3	     35387 ns/op	    9384 B/op	     198 allocs/op
BenchmarkExpScaling     	       3	 630305076 ns/op	357125218 B/op	 1910071 allocs/op
PASS
ok  	congestlb	4.168s
`

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkExpFigure1     \t       3\t     35387 ns/op\t    9384 B/op\t     198 allocs/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if r.Name != "BenchmarkExpFigure1" || r.Iterations != 3 || r.NsPerOp != 35387 ||
		r.BytesPerOp != 9384 || r.AllocsPerOp != 198 {
		t.Fatalf("parsed wrong: %+v", r)
	}
	for _, junk := range []string{"", "PASS", "goos: linux", "ok  \tcongestlb\t4.1s", "Benchmark only"} {
		if _, ok := parseLine(junk); ok {
			t.Fatalf("non-benchmark line accepted: %q", junk)
		}
	}
}

func TestParseLineMetrics(t *testing.T) {
	tests := []struct {
		name   string
		line   string
		ok     bool
		ns     float64
		metric map[string]float64
	}{
		{
			name: "standard units only",
			line: "BenchmarkExpFigure1-2 \t 3\t 35387 ns/op\t 9384 B/op\t 198 allocs/op",
			ok:   true, ns: 35387,
		},
		{
			name: "custom per-op unit",
			line: "BenchmarkExactWorkers/workers=1-2 \t 3\t 858280 ns/op\t 2977 steps/op\t 14168 B/op\t 248 allocs/op",
			ok:   true, ns: 858280, metric: map[string]float64{"steps/op": 2977},
		},
		{
			name: "several extra units",
			line: "BenchmarkCodec \t 10\t 1200 ns/op\t 85.50 MB/s\t 0.25 misses/op",
			ok:   true, ns: 1200, metric: map[string]float64{"MB/s": 85.5, "misses/op": 0.25},
		},
		{
			name: "malformed extra value",
			line: "BenchmarkExactWorkers/workers=1 \t 3\t 858280 ns/op\t x steps/op",
		},
		{
			name: "extra unit without ns/op",
			line: "BenchmarkOdd \t 3\t 2977 steps/op",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, ok := parseLine(tt.line)
			if ok != tt.ok {
				t.Fatalf("ok = %v, want %v (%+v)", ok, tt.ok, r)
			}
			if !ok {
				return
			}
			if r.NsPerOp != tt.ns || !reflect.DeepEqual(r.Metrics, tt.metric) {
				t.Fatalf("parsed %+v, want ns/op %v metrics %v", r, tt.ns, tt.metric)
			}
		})
	}
	// The map survives the JSON baseline round trip and is omitted when empty.
	r, _ := parseLine(tests[1].line)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"metrics":{"steps/op":2977}`) {
		t.Fatalf("metrics missing from JSON: %s", data)
	}
	plain, _ := parseLine(tests[0].line)
	if data, _ := json.Marshal(plain); strings.Contains(string(data), "metrics") {
		t.Fatalf("empty metrics serialised: %s", data)
	}
}

func TestConvert(t *testing.T) {
	var buf bytes.Buffer
	if err := convert(strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	// Sorted by name.
	if results[0].Name != "BenchmarkExpFigure1" || results[1].Name != "BenchmarkExpScaling" {
		t.Fatalf("wrong order: %+v", results)
	}
	if results[1].AllocsPerOp != 1910071 {
		t.Fatalf("scaling allocs wrong: %+v", results[1])
	}
}

func TestConvertEmptyInput(t *testing.T) {
	var buf bytes.Buffer
	if err := convert(strings.NewReader("PASS\n"), &buf); err == nil {
		t.Fatal("empty input accepted")
	}
}

func envelopeJSON(t *testing.T, env runner.Envelope) string {
	t.Helper()
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCheckEnvelopeOK(t *testing.T) {
	env := runner.Envelope{
		Schema: runner.Schema,
		Jobs:   4,
		WallMS: 120,
		OK:     2,
		Cache:  cache.Stats{Misses: 3},
		Experiments: []runner.ExperimentResult{
			{ID: "figure1", Status: runner.StatusOK, WallMS: 60, Cache: cache.Stats{Misses: 3}},
			{ID: "codes", Status: runner.StatusOK, WallMS: 60},
		},
	}
	var buf bytes.Buffer
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, false, false, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figure1", "codes", "jobs=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCheckEnvelopeFailsOnNonOK(t *testing.T) {
	env := runner.Envelope{
		Schema: runner.Schema,
		OK:     1,
		Failed: 1,
		Experiments: []runner.ExperimentResult{
			{ID: "figure1", Status: runner.StatusOK},
			{ID: "theorem5", Status: runner.StatusFailed, Error: "accounting violated"},
		},
	}
	var buf bytes.Buffer
	err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, false, false, "")
	if err == nil {
		t.Fatal("failed experiment accepted")
	}
	if !strings.Contains(err.Error(), "theorem5: accounting violated") {
		t.Fatalf("error does not name the failure: %v", err)
	}
}

func TestCheckEnvelopeRequireDiskHits(t *testing.T) {
	env := runner.Envelope{
		Schema:      runner.Schema,
		OK:          1,
		Experiments: []runner.ExperimentResult{{ID: "figure1", Status: runner.StatusOK}},
	}
	var buf bytes.Buffer
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, true, false, false, false, ""); err == nil {
		t.Fatal("cold run accepted with -require-disk-hits")
	}
	env.Cache.DiskHits = 3
	env.Experiments[0].Cache.DiskHits = 3
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, true, false, false, false, ""); err != nil {
		t.Fatalf("warm run rejected: %v", err)
	}
}

// writeBaseline marshals results to a temp baseline file.
func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaselinesPassAndDeltas(t *testing.T) {
	oldPath := writeBaseline(t, []Result{
		{Name: "BenchmarkA", Iterations: 3, NsPerOp: 1000, BytesPerOp: 500},
		{Name: "BenchmarkGone", Iterations: 3, NsPerOp: 10},
	})
	newPath := writeBaseline(t, []Result{
		{Name: "BenchmarkA", Iterations: 3, NsPerOp: 1100, BytesPerOp: 450},
		{Name: "BenchmarkNew", Iterations: 3, NsPerOp: 20},
	})
	var buf bytes.Buffer
	if err := compareBaselines(oldPath, newPath, 0.25, 0, &buf); err != nil {
		t.Fatalf("+10%% within +25%% threshold rejected: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"+10.0%", "-10.0%", "(removed)", "(new)", "no regression"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareBaselinesFailsOnRegression(t *testing.T) {
	old := Result{Name: "BenchmarkA", Iterations: 3, NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10}
	oldPath := writeBaseline(t, []Result{old})
	for _, tc := range []struct {
		name      string
		edit      func(r *Result)
		threshold float64
		floor     float64
		want      string // the unit named in the error; "" = passes
	}{
		{"ns/op +50%", func(r *Result) { r.NsPerOp = 1500 }, 0.25, 0, "ns/op"},
		{"B/op +100%", func(r *Result) { r.BytesPerOp = 200 }, 0.25, 0, "B/op"},
		{"allocs/op +100%", func(r *Result) { r.AllocsPerOp = 20 }, 0.25, 0, "allocs/op"},
		// allocs/op is deterministic: the ns/op floor does not exempt it.
		{"allocs/op +100% under the floor", func(r *Result) { r.AllocsPerOp = 20 }, 0.25, 1_000_000, "allocs/op"},
		{"allocs/op +20%", func(r *Result) { r.AllocsPerOp = 12 }, 0.25, 0, ""},
		// A looser threshold lets the same delta through.
		{"ns/op +50% at a +60% threshold", func(r *Result) { r.NsPerOp = 1500 }, 0.60, 0, ""},
	} {
		r := old
		tc.edit(&r)
		var buf bytes.Buffer
		err := compareBaselines(oldPath, writeBaseline(t, []Result{r}), tc.threshold, tc.floor, &buf)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "BenchmarkA: "+tc.want+" ")):
			t.Errorf("%s: error %v, want a %s regression", tc.name, err, tc.want)
		}
	}
}

// TestCompareBaselinesFloorExemptsShortBenches: benchmarks whose old
// ns/op sits below the floor never gate on timing — a 1-iteration smoke
// cannot time a microsecond bench meaningfully — but their B/op (which
// is deterministic) still gates.
func TestCompareBaselinesFloorExemptsShortBenches(t *testing.T) {
	oldPath := writeBaseline(t, []Result{
		{Name: "BenchmarkTiny", Iterations: 1, NsPerOp: 35_000, BytesPerOp: 100},
		{Name: "BenchmarkBig", Iterations: 1, NsPerOp: 50_000_000, BytesPerOp: 1000},
	})
	noisy := writeBaseline(t, []Result{
		{Name: "BenchmarkTiny", Iterations: 1, NsPerOp: 110_000, BytesPerOp: 110}, // 3x ns: pure noise
		{Name: "BenchmarkBig", Iterations: 1, NsPerOp: 51_000_000, BytesPerOp: 1000},
	})
	var buf bytes.Buffer
	if err := compareBaselines(oldPath, noisy, 0.25, 1_000_000, &buf); err != nil {
		t.Fatalf("sub-floor timing noise gated the comparison: %v", err)
	}
	// Without the floor the same data must fail on ns/op.
	if err := compareBaselines(oldPath, noisy, 0.25, 0, &buf); err == nil {
		t.Fatal("regression beyond threshold accepted at floor 0")
	}
	// The floor must not shield real regressions in long benches.
	slowBig := writeBaseline(t, []Result{
		{Name: "BenchmarkTiny", Iterations: 1, NsPerOp: 35_000, BytesPerOp: 100},
		{Name: "BenchmarkBig", Iterations: 1, NsPerOp: 90_000_000, BytesPerOp: 1000},
	})
	if err := compareBaselines(oldPath, slowBig, 0.25, 1_000_000, &buf); err == nil {
		t.Fatal("long-bench regression accepted with floor set")
	}
	// ...nor an allocation regression in a sub-floor bench: B/op is
	// deterministic even at one iteration, so it gates regardless.
	fatTiny := writeBaseline(t, []Result{
		{Name: "BenchmarkTiny", Iterations: 1, NsPerOp: 35_000, BytesPerOp: 10_000},
		{Name: "BenchmarkBig", Iterations: 1, NsPerOp: 50_000_000, BytesPerOp: 1000},
	})
	err := compareBaselines(oldPath, fatTiny, 0.25, 1_000_000, &buf)
	if err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Fatalf("sub-floor B/op regression not flagged: %v", err)
	}
}

func TestCompareBaselinesBadInput(t *testing.T) {
	good := writeBaseline(t, []Result{{Name: "BenchmarkA", Iterations: 1, NsPerOp: 1}})
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compareBaselines(good, bad, 0.25, 0, &buf); err == nil {
		t.Fatal("garbage new baseline accepted")
	}
	if err := compareBaselines(filepath.Join(t.TempDir(), "missing.json"), good, 0.25, 0, &buf); err == nil {
		t.Fatal("missing old baseline accepted")
	}
}

func TestCheckEnvelopeRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := checkEnvelope(strings.NewReader("not json"), &buf, false, false, false, false, ""); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := checkEnvelope(strings.NewReader(`{"schema":"something/else"}`), &buf, false, false, false, false, ""); err == nil {
		t.Fatal("wrong schema accepted")
	}
	// An envelope whose summary counters disagree with its records is
	// corrupt even if every listed experiment looks ok.
	env := runner.Envelope{
		Schema:      runner.Schema,
		Failed:      1,
		Experiments: []runner.ExperimentResult{{ID: "figure1", Status: runner.StatusOK}},
	}
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, false, false, ""); err == nil {
		t.Fatal("inconsistent envelope accepted")
	}
}

// TestCheckEnvelopeFailures: the run level must equal the sum of the
// records in every cache counter but evictions and entries (snapshots of
// the cache), and in panics_recovered. -require-failures accepts a run
// whose only fault is a panic, a degraded solve, a disk retry or a
// quarantine and rejects a clean one, and -allow-failed tolerates a
// failed experiment.
func TestCheckEnvelopeFailures(t *testing.T) {
	// consistent builds a clean two-experiment envelope, then gives the
	// second experiment the fault counters of panics and faults.
	consistent := func(panics uint64, faults cache.Stats) runner.Envelope {
		a := cache.Stats{Hits: 3, Misses: 2, StepsSolved: 40, StepsSaved: 25, SharedHits: 1,
			DiskHits: 1, DiskMisses: 1, DiskWrites: 1, DiskEvictions: 1}
		run := a
		run.Add(faults)
		run.Evictions, run.Entries = 4, 7
		return runner.Envelope{
			Schema:          runner.Schema,
			OK:              2,
			Cache:           run,
			PanicsRecovered: panics,
			Experiments: []runner.ExperimentResult{
				{ID: "figure1", Status: runner.StatusOK, Cache: a},
				{ID: "scaling", Status: runner.StatusOK, Cache: faults, PanicsRecovered: panics},
			},
		}
	}
	check := func(env runner.Envelope, allowFailed, requireFailures bool) (string, error) {
		var buf bytes.Buffer
		err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, allowFailed, requireFailures, "")
		return buf.String(), err
	}

	// Bumping one run-level counter by one breaks the sum, unless it is a
	// snapshot of the cache.
	stats := reflect.TypeOf(cache.Stats{})
	for i := 0; i < stats.NumField(); i++ {
		name, _, _ := strings.Cut(stats.Field(i).Tag.Get("json"), ",")
		env := consistent(0, cache.Stats{})
		f := reflect.ValueOf(&env.Cache).Elem().Field(i)
		if f.CanUint() {
			f.SetUint(f.Uint() + 1)
		} else {
			f.SetInt(f.Int() + 1)
		}
		_, err := check(env, false, false)
		if snapshot := name == "evictions" || name == "entries"; snapshot != (err == nil) {
			t.Errorf("run-level %s bumped by one: err = %v", name, err)
		}
	}
	env := consistent(0, cache.Stats{})
	env.PanicsRecovered++
	if _, err := check(env, false, false); err == nil {
		t.Error("run-level panics_recovered bumped by one: accepted")
	}

	// -require-failures rejects a clean run and accepts any one fault.
	if _, err := check(consistent(0, cache.Stats{}), false, true); err == nil {
		t.Error("clean run accepted with -require-failures")
	}
	if _, err := check(consistent(0, cache.Stats{}), false, false); err != nil {
		t.Errorf("clean run rejected without -require-failures: %v", err)
	}
	for name, env := range map[string]runner.Envelope{
		"panic":      consistent(1, cache.Stats{}),
		"degraded":   consistent(0, cache.Stats{DegradedSolves: 1}),
		"retry":      consistent(0, cache.Stats{DiskRetries: 1}),
		"quarantine": consistent(0, cache.Stats{DiskQuarantined: 1}),
	} {
		out, err := check(env, false, true)
		if err != nil {
			t.Errorf("run whose only fault is a %s rejected with -require-failures: %v", name, err)
		}
		if !strings.Contains(out, "faults (run):") {
			t.Errorf("%s: summary has no run-level faults line:\n%s", name, out)
		}
	}

	// Without -allow-failed a failed experiment still gates.
	env = consistent(1, cache.Stats{DiskRetries: 2})
	env.OK, env.Failed = 1, 1
	env.Experiments[1].Status, env.Experiments[1].Error = runner.StatusFailed, "panic in job"
	if _, err := check(env, false, false); err == nil {
		t.Fatal("failed experiment accepted without -allow-failed")
	}
	out, err := check(env, true, true)
	if err != nil {
		t.Fatalf("chaos envelope rejected: %v", err)
	}
	for _, want := range []string{"faults (run):", "1 panic(s) recovered", "2 disk retry(ies)", "tolerated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestParseLineStripsCPUSuffix: the -<GOMAXPROCS> suffix a multi-core
// bench run appends must not enter baseline names, and nested
// sub-benchmark names survive intact.
func TestParseLineStripsCPUSuffix(t *testing.T) {
	r, ok := parseLine("BenchmarkExpScaling/n=192-8         1  412000000 ns/op  357125218 B/op  1910071 allocs/op")
	if !ok {
		t.Fatal("nested benchmark line rejected")
	}
	if r.Name != "BenchmarkExpScaling/n=192" {
		t.Fatalf("name %q, want cpu suffix stripped", r.Name)
	}
	r, ok = parseLine("BenchmarkExpFigure1-16     3  35387 ns/op")
	if !ok || r.Name != "BenchmarkExpFigure1" {
		t.Fatalf("flat name with suffix: %+v ok=%v", r, ok)
	}
	// No suffix (1-core runs): name unchanged.
	r, ok = parseLine("BenchmarkExpFigure1     3  35387 ns/op")
	if !ok || r.Name != "BenchmarkExpFigure1" {
		t.Fatalf("suffix-free name mangled: %+v ok=%v", r, ok)
	}
}

// TestCompareBaselinesSuiteFallback: an old flat benchmark compares
// against its new <name>/suite sub-benchmark after a b.Run promotion, and
// the consumed sub-benchmark is not double-reported as new.
func TestCompareBaselinesSuiteFallback(t *testing.T) {
	oldPath := writeBaseline(t, []Result{
		{Name: "BenchmarkExpScaling", Iterations: 3, NsPerOp: 1000, BytesPerOp: 500},
	})
	newPath := writeBaseline(t, []Result{
		{Name: "BenchmarkExpScaling/n=192", Iterations: 3, NsPerOp: 600, BytesPerOp: 300},
		{Name: "BenchmarkExpScaling/suite", Iterations: 3, NsPerOp: 900, BytesPerOp: 450},
	})
	var buf bytes.Buffer
	if err := compareBaselines(oldPath, newPath, 0.25, 0, &buf); err != nil {
		t.Fatalf("suite fallback comparison failed: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, "(removed)") {
		t.Fatalf("promoted benchmark reported removed:\n%s", out)
	}
	if !strings.Contains(out, "-10.0%") {
		t.Fatalf("suite delta not computed against old flat name:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkExpScaling/n=192") || !strings.Contains(out, "(new)") {
		t.Fatalf("per-point sub-benchmark should report as new:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkExpScaling/suite  ") && strings.Count(out, "BenchmarkExpScaling/suite") > 1 {
		t.Fatalf("consumed suite name double-reported:\n%s", out)
	}

	// The fallback still gates: a regressed suite fails.
	slowPath := writeBaseline(t, []Result{
		{Name: "BenchmarkExpScaling/suite", Iterations: 3, NsPerOp: 2000, BytesPerOp: 500},
	})
	if err := compareBaselines(oldPath, slowPath, 0.25, 0, &buf); err == nil {
		t.Fatal("suite regression accepted through the fallback")
	}
}

// observedEnvelope builds a consistent envelope with a metrics block
// whose counters mirror the cache block exactly.
func observedEnvelope() runner.Envelope {
	traffic := cache.Stats{Hits: 3, Misses: 5, SharedHits: 1, DiskHits: 2, DiskMisses: 3, StepsSolved: 40, StepsSaved: 25}
	return runner.Envelope{
		Schema:  runner.Schema,
		OK:      1,
		Cache:   traffic,
		LBGraph: runner.BuildStats{Misses: 4},
		Experiments: []runner.ExperimentResult{
			{ID: "scaling", Status: runner.StatusOK, Cache: traffic},
		},
		Metrics: &obs.Snapshot{Counters: map[string]int64{
			obs.MSolveCacheHits:       3,
			obs.MSolveCacheMisses:     5,
			obs.MSolveCacheSharedHits: 1,
			obs.MSolveCacheDiskHits:   2,
			obs.MSolveCacheDiskMisses: 3,
			obs.MSolveSteps:           40,
			obs.MSolveStepsSaved:      25,
		}},
		Spans: []obs.SpanStat{{Name: "run", Count: 1, TotalNS: 1e6, MaxNS: 1e6}},
	}
}

// TestCheckEnvelopeMetrics: a metrics block is printed and enforced
// against the cache block; -require-metrics fails unobserved runs.
func TestCheckEnvelopeMetrics(t *testing.T) {
	var buf bytes.Buffer
	env := observedEnvelope()
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, true, false, false, ""); err != nil {
		t.Fatalf("consistent observed envelope rejected: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"metrics delta", obs.MSolveCacheMisses, "span run", "consistent with the cache block"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}

	// Any disagreement between the registry delta and the cache block is
	// corruption: the cache books both with one call.
	for _, name := range []string{
		obs.MSolveCacheMisses,
		obs.MSolveCacheSharedHits,
		obs.MSolveCacheDiskHits,
		obs.MSolveCacheDiskMisses,
		obs.MSolveSteps,
		obs.MSolveStepsSaved,
	} {
		env = observedEnvelope()
		env.Metrics.Counters[name] = 99
		err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, false, false, "")
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s disagreement not flagged: %v", name, err)
		}
	}

	// An observed envelope without spans is broken: the run span always
	// records.
	env = observedEnvelope()
	env.Spans = nil
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, false, false, ""); err == nil {
		t.Fatal("span-free observed envelope accepted")
	}

	// -require-metrics gates unobserved runs; without it they pass.
	plain := observedEnvelope()
	plain.Metrics, plain.Spans = nil, nil
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, plain)), &buf, false, true, false, false, ""); err == nil {
		t.Fatal("unobserved run accepted with -require-metrics")
	}
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, plain)), &buf, false, false, false, false, ""); err != nil {
		t.Fatalf("unobserved run rejected without the flag: %v", err)
	}
}

// TestCheckEnvelopeScrape: the -scrape cross-check accepts a live
// snapshot that covers the envelope's delta (cumulative ≥ delta) and
// rejects one that falls short or cannot be fetched.
func TestCheckEnvelopeScrape(t *testing.T) {
	env := observedEnvelope()
	live := obs.Snapshot{Counters: map[string]int64{}}
	for name, v := range env.Metrics.Counters {
		live.Counters[name] = v + 1 // cumulative: later traffic is fine
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(live)
	}))
	defer srv.Close()

	var buf bytes.Buffer
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, false, false, srv.URL); err != nil {
		t.Fatalf("covering scrape rejected: %v", err)
	}
	if !strings.Contains(buf.String(), "covered") {
		t.Fatalf("scrape summary missing:\n%s", buf.String())
	}

	live.Counters[obs.MSolveCacheMisses] = 0 // scraped registry can't have seen less
	err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, false, false, srv.URL)
	if err == nil || !strings.Contains(err.Error(), "misses") {
		t.Fatalf("short scrape not flagged: %v", err)
	}

	srv.Close()
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, env)), &buf, false, false, false, false, srv.URL); err == nil {
		t.Fatal("dead endpoint accepted")
	}

	// -scrape against an unobserved envelope has nothing to compare.
	plain := observedEnvelope()
	plain.Metrics, plain.Spans = nil, nil
	if err := checkEnvelope(strings.NewReader(envelopeJSON(t, plain)), &buf, false, false, false, false, srv.URL); err == nil {
		t.Fatal("-scrape accepted an envelope without metrics")
	}
}

func TestOpenEnvelopeFileAndURL(t *testing.T) {
	env := runner.Envelope{
		Schema:      runner.Schema,
		OK:          1,
		Experiments: []runner.ExperimentResult{{ID: "figure1", Status: runner.StatusOK}},
	}
	data := envelopeJSON(t, env)

	path := filepath.Join(t.TempDir(), "env.json")
	if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
		t.Fatal(err)
	}
	rc, err := openEnvelope(path, "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkEnvelope(rc, &buf, false, false, false, false, ""); err != nil {
		t.Fatalf("file envelope rejected: %v", err)
	}
	rc.Close()

	// URL path: the server stands in for congestlbd's
	// GET /v1/experiments/last and demands the bearer key, like the
	// daemon's tenant auth does.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer secret" {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		w.Write([]byte(data))
	}))
	defer srv.Close()

	if _, err := openEnvelope(srv.URL, ""); err == nil {
		t.Fatal("missing bearer accepted")
	}
	rc, err = openEnvelope(srv.URL, "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	buf.Reset()
	if err := checkEnvelope(rc, &buf, false, false, false, false, ""); err != nil {
		t.Fatalf("URL envelope rejected: %v", err)
	}
	if !strings.Contains(buf.String(), "figure1") {
		t.Fatalf("summary missing experiment:\n%s", buf.String())
	}
}

// TestConvertFoldsRepeatedSamples: `go test -count N` prints one result
// line per sample; convert keeps one Result per benchmark holding the
// medians, the sample count and the ns/op range, and a benchmark run once
// stays as it was, without the sample fields.
func TestConvertFoldsRepeatedSamples(t *testing.T) {
	const input = `goos: linux
BenchmarkSimulateReduce/linear-t3-2     1  92404726 ns/op  5598058 B/op  4388 allocs/op
BenchmarkSimulateReduce/quadratic-t2-2  1  66406235 ns/op  4364951 B/op  4485 allocs/op  12 steps/op
BenchmarkSimulateReduce/linear-t3-2     1  86972273 ns/op  5437872 B/op  3922 allocs/op
BenchmarkSimulateReduce/quadratic-t2-2  1  59295557 ns/op  4195617 B/op  3987 allocs/op  10 steps/op
BenchmarkSimulateReduce/linear-t3-2     1  89000000 ns/op  5500000 B/op  4000 allocs/op
BenchmarkSimulateReduce/quadratic-t2-2  1  61000000 ns/op  4200000 B/op  4100 allocs/op  11 steps/op
BenchmarkFloodRing256-2                 3  1000 ns/op
PASS
`
	var buf bytes.Buffer
	if err := convert(strings.NewReader(input), &buf); err != nil {
		t.Fatal(err)
	}
	var got []Result
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkFloodRing256", Iterations: 3, NsPerOp: 1000},
		{Name: "BenchmarkSimulateReduce/linear-t3", Iterations: 1, NsPerOp: 89000000, BytesPerOp: 5500000, AllocsPerOp: 4000,
			Samples: 3, MinNsPerOp: 86972273, MaxNsPerOp: 92404726},
		{Name: "BenchmarkSimulateReduce/quadratic-t2", Iterations: 1, NsPerOp: 61000000, BytesPerOp: 4200000, AllocsPerOp: 4100,
			Metrics: map[string]float64{"steps/op": 11}, Samples: 3, MinNsPerOp: 59295557, MaxNsPerOp: 66406235},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("folded results:\n got %+v\nwant %+v", got, want)
	}
	if strings.Contains(buf.String()[:strings.Index(buf.String(), "BenchmarkSimulateReduce")], "samples") {
		t.Fatalf("a single sample carries sample fields:\n%s", buf.String())
	}
}
