// Package obs is the repository's observability layer: a per-Lab
// metrics registry (counters, gauges, bounded histograms), lightweight
// begin/end spans forming a timing tree, and a ProgressObserver channel
// for live incumbent-weight streaming from the exact solvers.
//
// The package is a leaf: it imports only the standard library, so every
// internal package (mis, cache, lbgraph, congest, experiments, runner)
// can depend on it without cycles.
//
// # Nil-registry fast path
//
// Everything in this package is nil-safe by construction. A nil
// *Registry hands out nil handles, and every handle method
// (Counter.Add, Gauge.Set, Histogram.Observe, Span.End) is a no-op on a
// nil/zero receiver. Call sites therefore never branch on "is
// observability on" — they hold a possibly-nil handle and call through
// it unconditionally, which the compiler reduces to a single
// predictable nil check. This is what makes the instrumentation
// provably free when disabled: with no registry attached the hot paths
// execute the same loads and branches as before the layer existed.
//
// # Naming
//
// Metric names are lower_snake_case. Most are unlabeled (a registry is
// per-Lab, which is usually the only dimension we need); the service
// layer's per-tenant series attach a label via Labeled, which the
// Prometheus exposition understands. The canonical names used across the
// repository are the M* constants below; the Prometheus exposition in
// Handler prefixes them with "congestlb_" and suffixes counters with
// "_total" (before the label braces, when present).
package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names. Instrumented packages resolve handles by
// these names so benchjson, the docs, and the scrape endpoint all agree
// on spelling.
const (
	// Solve cache (mis/cache) — memory tier, disk tier, single-flight.
	MSolveCacheHits   = "solve_cache_hits"
	MSolveCacheMisses = "solve_cache_misses"
	// MSolveCacheWaits counts lookups that blocked on another caller's
	// in-flight solve of the same key (single-flight collapse).
	MSolveCacheWaits = "solve_cache_singleflight_waits"
	// MSolveCacheSharedHits counts the subset of hits served by a
	// cross-cache SharedTier (a solve another tenant already paid for).
	MSolveCacheSharedHits = "solve_cache_shared_hits"
	MSolveCacheDiskHits   = "solve_cache_disk_hits"
	MSolveCacheDiskMisses = "solve_cache_disk_misses"

	// Exact solver, recorded at the cache's fresh-solve site.
	MSolveSteps      = "solver_steps"           // counter: branch-and-bound nodes across all fresh solves
	MSolveStepsSaved = "solver_steps_saved"     // counter: nodes avoided via cache hits
	MSolveLatencyNS  = "solve_latency_ns"       // histogram: wall time per fresh solve
	MSolveStepsHist  = "solver_steps_per_solve" // histogram: nodes per fresh solve

	// Incumbent updates (fired via the registry's IncumbentObserver).
	MSolverIncumbents      = "solver_incumbent_updates" // counter
	MSolverIncumbentWeight = "solver_incumbent_weight"  // gauge: last reported weight

	// Scheduler (experiments.Scheduler).
	MSchedQueueDepth = "sched_queue_depth" // gauge: jobs sitting in the two queues
	MSchedJobs       = "sched_jobs"        // counter: jobs ever enqueued
	MSchedJobWaitNS  = "sched_job_wait_ns" // histogram: enqueue→claim latency

	// CONGEST round loop (congest.Network.RunCtx).
	MEngineRuns     = "engine_runs"     // counter: completed simulations
	MEngineRounds   = "engine_rounds"   // counter: rounds across completed simulations
	MEngineMessages = "engine_messages" // counter: messages delivered
	MEngineBits     = "engine_bits"     // counter: payload bits delivered

	// Fault containment (see docs/robustness.md). Panic recoveries are
	// counted where they are caught; disk retry/quarantine traffic is
	// counted at the solve cache's disk-tier call sites.
	MSchedJobPanics            = "sched_job_panics"             // counter: panics recovered in scheduler jobs
	MSolverDegradedSolves      = "solver_degraded_solves"       // counter: solves whose search panicked and fell back to the incumbent
	MSolveCacheDiskRetries     = "solve_cache_disk_retries"     // counter: disk-tier I/O attempts retried
	MSolveCacheDiskQuarantined = "solve_cache_disk_quarantined" // counter: corrupt disk entries moved to quarantine

	// Service layer (internal/serve). Per-tenant series carry a tenant
	// label (see Labeled); the unlabeled name is the daemon-wide series.
	MServeRequests    = "serve_requests"            // counter: admitted API requests
	MServeRejected    = "serve_rejected"            // counter: requests turned away with 429
	MServeQueueDepth  = "serve_queue_depth"         // gauge: jobs waiting for an executor
	MServeInflight    = "serve_inflight_jobs"       // gauge: admitted jobs not yet finished
	MServeTierEntries = "serve_shared_tier_entries" // gauge: solutions held by the cross-tenant tier
	MServeTierHits    = "serve_shared_tier_hits"    // gauge: cumulative cross-tenant tier hits
)

// Labeled renders a metric name with label pairs attached in the
// Prometheus exposition style: Labeled("serve_requests", "tenant", "a")
// → `serve_requests{tenant="a"}`. The registry treats the result as an
// ordinary (interned) name; the scrape endpoint knows to splice counter
// suffixes before the brace. Pairs must come as key, value, key, value —
// a trailing odd key is ignored.
func Labeled(name string, pairs ...string) string {
	if len(pairs) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(pairs[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing int64. The zero value is ready
// to use; a nil *Counter is a no-op sink.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. The zero value is ready to
// use; a nil *Gauge is a no-op sink.
type Gauge struct{ v atomic.Int64 }

// Set stores the value. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (negative to decrement). No-op on nil.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of every histogram: bucket i
// (i ≥ 1) holds observations whose bit length is i, i.e. values in
// [2^(i-1), 2^i); bucket 0 holds values ≤ 0. Power-of-two buckets keep
// Observe allocation-free and branch-cheap (one bits.Len64) while
// spanning the full int64 range — fine-grained enough for latency and
// step distributions, bounded enough to live in a 64-entry array.
const histBuckets = 64

// Histogram is a bounded power-of-two histogram. The zero value is
// ready to use; a nil *Histogram is a no-op sink.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// bucketLe returns the inclusive upper bound of bucket i.
func bucketLe(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Registry owns a flat namespace of counters, gauges, and histograms
// plus the span log. Handles are interned: Counter("x") always returns
// the same *Counter, so instrumented code resolves names once and holds
// the handle. All methods are safe for concurrent use and nil-safe
// (a nil *Registry hands out nil handles and zero snapshots).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spans    spanLog
	nextSpan atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the interned counter with the given name, creating
// it on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the interned gauge with the given name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the interned histogram with the given name,
// creating it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// BucketCount is one non-empty histogram bucket in a snapshot. Le is
// the bucket's inclusive upper bound (2^k−1; 0 for the ≤0 bucket).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry's metrics, suitable
// for JSON embedding (it is what the v6 experiment envelope carries).
// Zero-valued metrics are omitted.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the snapshot's value for a named counter (0 if
// absent), saving callers the nil-map dance.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the snapshot's value for a named gauge (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot captures the registry's current metric values. A nil
// registry yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if v := c.Value(); v != 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]int64)
			}
			s.Counters[name] = v
		}
	}
	for name, g := range r.gauges {
		if v := g.Value(); v != 0 {
			if s.Gauges == nil {
				s.Gauges = make(map[string]int64)
			}
			s.Gauges[name] = v
		}
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		if hs.Count == 0 {
			continue
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n != 0 {
				hs.Buckets = append(hs.Buckets, BucketCount{Le: bucketLe(i), Count: n})
			}
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot)
		}
		s.Histograms[name] = hs
	}
	return s
}

// DeltaSince returns the change from prev to s: counters and histogram
// counts/sums/buckets are subtracted (entries that did not move are
// dropped), while gauges keep their end-of-window value — a gauge is a
// level, not a flow. This is how the runner embeds a per-run metrics
// block that stays sum-consistent with the envelope's legacy counters
// even when the same Lab runs several suites back to back.
func (s Snapshot) DeltaSince(prev Snapshot) Snapshot {
	var d Snapshot
	for name, v := range s.Counters {
		if dv := v - prev.Counters[name]; dv != 0 {
			if d.Counters == nil {
				d.Counters = make(map[string]int64)
			}
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		if d.Gauges == nil {
			d.Gauges = make(map[string]int64)
		}
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		dh := HistogramSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
		if dh.Count == 0 && dh.Sum == 0 {
			continue
		}
		prevByLe := make(map[int64]int64, len(p.Buckets))
		for _, b := range p.Buckets {
			prevByLe[b.Le] = b.Count
		}
		for _, b := range h.Buckets {
			if n := b.Count - prevByLe[b.Le]; n != 0 {
				dh.Buckets = append(dh.Buckets, BucketCount{Le: b.Le, Count: n})
			}
		}
		if d.Histograms == nil {
			d.Histograms = make(map[string]HistogramSnapshot)
		}
		d.Histograms[name] = dh
	}
	return d
}

// sortedKeys returns map keys in deterministic order for exposition.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
