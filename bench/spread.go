package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readResults collects the result lines of a file of benchmark output:
// every line that parses as a result with metrics.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// spreadReport prints, for each end-to-end metric, the median and spread
// (interquartile range / median) of each set of runs, and with two sets
// the repeat check against the metric's bound. It fails when a check
// does.
func spreadReport(out io.Writer, specPath string, paths []string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var sets [][]result
	for _, p := range paths {
		rs, err := readResults(p)
		if err != nil {
			return err
		}
		if len(rs) < 2 {
			return fmt.Errorf("%s: %d result lines, need at least 2", p, len(rs))
		}
		sets = append(sets, rs)
	}
	values := func(rs []result, name string) ([]float64, error) {
		var vs []float64
		for i, r := range rs {
			m, ok := r.Metrics[name]
			if !ok {
				return nil, fmt.Errorf("result %d has no %s", i+1, name)
			}
			vs = append(vs, m.Value)
		}
		return vs, nil
	}
	failed := 0
	for _, e := range spec.EndToEnd {
		line := fmt.Sprintf("%-18s bound %.2f", e.Name, e.Bound)
		var all [][]float64
		for _, rs := range sets {
			vs, err := values(rs, e.Name)
			if err != nil {
				return err
			}
			s, err := spread(vs)
			if err != nil {
				return err
			}
			line += fmt.Sprintf(" | n %d median %.6g spread %.4f (%.2f of bound)", len(vs), median(vs), s, s/e.Bound)
			all = append(all, vs)
		}
		if len(all) == 2 {
			rc, err := repeatCheck(all[0], all[1], e.Bound, e.Better, e.Name == "setup_s")
			if err != nil {
				return err
			}
			line += fmt.Sprintf(" | worse by %+.4f", rc.Worsening)
			if !rc.OK {
				line += " FAIL: " + rc.Why
				failed++
			}
		}
		fmt.Fprintln(out, line)
	}
	if failed > 0 {
		return fmt.Errorf("%d metrics failed the repeat check", failed)
	}
	return nil
}
