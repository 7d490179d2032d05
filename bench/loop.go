package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	latMS     []float64 // latency of each successful operation
	attempted int
	failed    int
	errs      []error // the first few failures, for the log
	wall      time.Duration
}

// maxLoggedErrors bounds how many failures a phase keeps for the log.
const maxLoggedErrors = 5

// drive runs operations first, first+1, … of b's seeded sequence from
// `clients` closed-loop goroutines: each sends its next request only
// after the previous one completed. It stops after limit operations
// (0 = no limit) or once stop has passed (zero = never), whichever comes
// first. With a tracer, every operation is traced under a root span named
// root when traceAll is set; otherwise half of them are (see sampled) and
// the rest record only a root.untraced span, so the two latency
// populations can be compared.
func drive(b bench, clients, first, limit int, stop time.Time, tr *tracer, root string, traceAll bool) loopResult {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var res loopResult
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var attempted, failed int
			var errs []error
			for {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= first+limit {
					break
				}
				if !stop.IsZero() && time.Now().After(stop) {
					break
				}
				attempted++
				d, err := runOp(b, i, tr, root, tr != nil && (traceAll || sampled(i-first)))
				if err != nil {
					failed++
					if len(errs) < maxLoggedErrors {
						errs = append(errs, err)
					}
					continue
				}
				lat = append(lat, float64(d.Nanoseconds())/1e6)
			}
			mu.Lock()
			res.latMS = append(res.latMS, lat...)
			res.attempted += attempted
			res.failed += failed
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	if len(res.errs) > maxLoggedErrors {
		res.errs = res.errs[:maxLoggedErrors]
	}
	return res
}

// sampled picks the traced half of a run's operations: exactly one of
// each consecutive pair (k, k+1) for even k, the one chosen by a hash of
// the pair. Any two consecutive operations thus include a traced and an
// untraced one, while a workload that alternates between two kinds of
// operation still gets both kinds traced.
func sampled(k int) bool {
	return (k%2 == 0) != (opSeed(0, "trace", k/2)%2 == 1)
}

// runOp prepares, times and checks one operation.
func runOp(b bench, i int, tr *tracer, root string, traced bool) (time.Duration, error) {
	call, check, err := b.op(i)
	if err != nil {
		return 0, fmt.Errorf("op %d: prepare: %w", i, err)
	}
	var sp *active
	if traced {
		sp = tr.root(root)
		sp.set("op", float64(i))
	}
	t0 := time.Now()
	err = call(sp)
	t1 := time.Now()
	if traced {
		sp.endAt(t1)
	} else {
		tr.record(0, 0, root+".untraced", t0, t1)
	}
	if err != nil {
		return 0, fmt.Errorf("op %d: %w", i, err)
	}
	if err := check(); err != nil {
		return 0, err
	}
	return t1.Sub(t0), nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("peak rss: unexpected line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
