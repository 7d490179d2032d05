package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at the tiny preset, untraced and traced,
// and checks the contract of the output: every metric BENCHMARK.json
// names is printed with its unit and reported in the result, every
// answer passed its checks, and the span file parses with no negative
// self time.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	type want struct{ name, unit string }
	var e2e, layer []want
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, want{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, want{m.Name, m.Unit})
	}
	for _, sw := range spec.Workloads {
		if _, ok := workloadByName(sw.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the benchmark", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", sw.Name, traced), func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				var out bytes.Buffer
				res, err := benchmark(&out, options{
					workload: sw.Name, seed: 7, seconds: 60, trace: traced, spans: spans, sizes: tinySizes,
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != tinySizes.maxOps {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				names := e2e
				if traced {
					names = layer
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(names))
				}
				for _, w := range names {
					m, ok := res.Metrics[w.name]
					if !ok || m.Unit != w.unit {
						t.Errorf("result metric %s = %+v, want unit %s", w.name, m, w.unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.name) + ` +\S+ ` + regexp.QuoteMeta(w.unit) + `$`)
					if !line.Match(out.Bytes()) {
						t.Errorf("output has no %q line with unit %s", w.name, w.unit)
					}
				}
				if !traced {
					return
				}
				ss, err := readSpans(spans)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := summarize(ss)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range sum.self {
					if row.selfMS < 0 || row.selfP50MS < 0 {
						t.Errorf("negative self time: %+v", row)
					}
				}
			})
		}
	}
}
