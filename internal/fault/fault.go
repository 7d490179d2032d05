// Package fault is the Lab's deterministic fault-injection layer.
//
// Production code marks its fault points with the package-level helpers
// (Should, Err, Corrupt, MaybePanic, Stall). With no injector installed —
// the production default — every helper is a single atomic pointer load
// returning the zero decision, so the instrumented paths stay effectively
// free (see BenchmarkFaultOverhead).
//
// A chaos run installs an Injector parsed from a plan spec:
//
//	<seed>:<point>[@match][*count][=rate][,<point>...]
//
// e.g. "42:disk-read=0.25,worker-panic@w0*1". Decisions are pure functions
// of (seed, point, site key, attempt): the same spec fires at the same
// content-addressed sites regardless of goroutine scheduling, worker
// count, or wall-clock, which is what lets the chaos suite assert exact
// failure attribution. The only scheduling-dependent construct is *count
// (an atomic budget of at-most-count firings), used to inject "exactly
// one" fault without caring which racing site claims it.
//
// The package also owns PanicError, the structured error every recovery
// site in the repo (scheduler jobs, experiment bodies, the exact solver,
// the batch engine) converts panics into. It lives here — not in
// the congestlb facade — so that leaf packages can return it without an
// import cycle; the facade re-exports it as congestlb.PanicError.
package fault

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Point names an instrumented fault site class.
type Point uint8

const (
	// DiskRead fails a solve-cache disk-tier read attempt.
	DiskRead Point = iota
	// DiskWrite fails a solve-cache disk-tier write attempt.
	DiskWrite
	// DiskSlow stalls a disk-tier operation (exercises latency paths).
	DiskSlow
	// DiskCorrupt flips bytes in a loaded disk-tier entry before it is
	// parsed (exercises the quarantine path).
	DiskCorrupt
	// JobPanic panics inside an experiment body or scheduler job.
	JobPanic
	// SolverPanic panics inside the exact solver's search (keyed "w0").
	SolverPanic
	// WorkerStall stalls a scheduler job before it runs.
	WorkerStall
	numPoints
)

var pointNames = [numPoints]string{
	DiskRead:    "disk-read",
	DiskWrite:   "disk-write",
	DiskSlow:    "disk-slow",
	DiskCorrupt: "disk-corrupt",
	JobPanic:    "job-panic",
	SolverPanic: "worker-panic",
	WorkerStall: "worker-stall",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "fault-point-" + strconv.Itoa(int(p))
}

// EnvVar is the environment variable cmd/experiments (and the chaos CI
// job) reads a fault spec from.
const EnvVar = "CONGESTLB_FAULTS"

// ErrInjected is the sentinel wrapped by every injected I/O error, so
// tests can tell injected failures from real ones.
var ErrInjected = errors.New("injected fault")

// stallDuration is how long a fired WorkerStall/DiskSlow point sleeps:
// long enough to reorder goroutines, short enough to keep chaos suites
// fast even at high rates.
const stallDuration = time.Millisecond

// rule is one parsed plan entry: point[@match][*count][=rate].
type rule struct {
	point Point
	match string // substring the site key must contain; "" matches all
	rate  float64
	max   int64 // at-most-N firings; 0 = unlimited
	fired atomic.Int64
}

// Injector holds a parsed fault plan. Decisions are deterministic in
// (seed, point, key, attempt) except for *count budgets, which are
// first-come-first-served across racing sites.
type Injector struct {
	seed  uint64
	spec  string
	rules []*rule
	fired [numPoints]atomic.Int64
}

// Parse builds an Injector from a "<seed>:<plan>" spec.
func Parse(spec string) (*Injector, error) {
	seedStr, plan, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("fault: spec %q: want \"<seed>:<plan>\"", spec)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fault: spec %q: bad seed: %v", spec, err)
	}
	in := &Injector{seed: seed, spec: spec}
	for _, entry := range strings.Split(plan, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		r, err := parseRule(entry)
		if err != nil {
			return nil, fmt.Errorf("fault: spec %q: %v", spec, err)
		}
		in.rules = append(in.rules, r)
	}
	if len(in.rules) == 0 {
		return nil, fmt.Errorf("fault: spec %q: empty plan", spec)
	}
	return in, nil
}

// parseRule parses one plan entry: point[@match][*count][=rate].
func parseRule(entry string) (*rule, error) {
	r := &rule{rate: 1}
	rest := entry
	if head, rateStr, ok := strings.Cut(rest, "="); ok {
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("entry %q: rate must be in [0,1]", entry)
		}
		r.rate, rest = rate, head
	}
	if head, maxStr, ok := strings.Cut(rest, "*"); ok {
		max, err := strconv.ParseInt(maxStr, 10, 64)
		if err != nil || max < 1 {
			return nil, fmt.Errorf("entry %q: count must be a positive integer", entry)
		}
		r.max, rest = max, head
	}
	if head, match, ok := strings.Cut(rest, "@"); ok {
		r.match, rest = match, head
	}
	point, ok := pointByName(rest)
	if !ok {
		return nil, fmt.Errorf("entry %q: unknown point %q", entry, rest)
	}
	r.point = point
	return r, nil
}

func pointByName(name string) (Point, bool) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), true
		}
	}
	return 0, false
}

// FromEnv parses CONGESTLB_FAULTS. Returns (nil, nil) when unset/empty.
func FromEnv() (*Injector, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil, nil
	}
	return Parse(spec)
}

// Spec returns the spec the injector was parsed from.
func (in *Injector) Spec() string { return in.spec }

// Counts reports how many times each point fired, keyed by point name.
// Points that never fired are omitted.
func (in *Injector) Counts() map[string]int64 {
	m := make(map[string]int64)
	for p := range in.fired {
		if n := in.fired[p].Load(); n > 0 {
			m[Point(p).String()] = n
		}
	}
	return m
}

// decide is the core decision: does point p fire at site key, attempt n?
func (in *Injector) decide(p Point, key string, n uint64) bool {
	for _, r := range in.rules {
		if r.point != p {
			continue
		}
		if r.match != "" && !strings.Contains(key, r.match) {
			continue
		}
		if r.rate < 1 {
			// FNV-1a over (seed, point, key, attempt), mapped to [0,1).
			h := uint64(14695981039346656037)
			mix := func(b byte) { h ^= uint64(b); h *= 1099511628211 }
			for i := 0; i < 8; i++ {
				mix(byte(in.seed >> (8 * i)))
			}
			mix(byte(p))
			for i := 0; i < len(key); i++ {
				mix(key[i])
			}
			for i := 0; i < 8; i++ {
				mix(byte(n >> (8 * i)))
			}
			if float64(h>>11)/float64(1<<53) >= r.rate {
				continue
			}
		}
		if r.max > 0 && r.fired.Add(1) > r.max {
			continue
		}
		in.fired[p].Add(1)
		return true
	}
	return false
}

// active is the process-wide injector. Production never installs one, so
// every fault helper reduces to this single atomic load plus a nil check.
var active atomic.Pointer[Injector]

// Set installs in as the process-wide injector (nil disables injection)
// and returns the previous one, letting tests restore it in a Cleanup.
func Set(in *Injector) *Injector { return active.Swap(in) }

// Active returns the installed injector, or nil when injection is off.
func Active() *Injector { return active.Load() }

// Should reports whether point p fires at site key.
func Should(p Point, key string) bool {
	in := active.Load()
	return in != nil && in.decide(p, key, 0)
}

// ShouldN is Should for retried sites: attempt n is part of the decision,
// so a plan with rate<1 can fail attempt 0 and pass attempt 1 at the same
// key, exercising retry-then-succeed paths deterministically.
func ShouldN(p Point, key string, n uint64) bool {
	in := active.Load()
	return in != nil && in.decide(p, key, n)
}

// Err returns an injected error when point p fires at (key, attempt n),
// else nil. The error wraps ErrInjected.
func Err(p Point, key string, n uint64) error {
	if !ShouldN(p, key, n) {
		return nil
	}
	return fmt.Errorf("%s@%s#%d: %w", p, key, n, ErrInjected)
}

// Corrupt returns data with deterministically flipped bytes when
// DiskCorrupt fires at key; otherwise it returns data untouched.
func Corrupt(key string, data []byte) []byte {
	if !Should(DiskCorrupt, key) || len(data) == 0 {
		return data
	}
	out := make([]byte, len(data))
	copy(out, data)
	// Flip a byte in each third of the entry so both header and payload
	// damage are exercised; XOR with 0xff guarantees a change.
	for i := 0; i < 3; i++ {
		out[(len(out)*i)/3] ^= 0xff
	}
	return out
}

// MaybePanic panics with an identifiable value when point p fires at key.
func MaybePanic(p Point, key string) {
	if Should(p, key) {
		panic(fmt.Sprintf("fault: injected panic %s@%s", p, key))
	}
}

// Stall sleeps briefly when point p fires at key.
func Stall(p Point, key string) {
	if Should(p, key) {
		time.Sleep(stallDuration)
	}
}

// PanicError is the structured error a recovered panic becomes. Op names
// the owning work item ("job", "experiment:scaling", "solver worker w0",
// "batch instance 3"); Value is the recovered panic
// value and Stack the goroutine stack captured at recovery.
//
// Error() deliberately excludes the stack: report lines built from it
// must be byte-stable across runs, and stacks are not.
type PanicError struct {
	Op    string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Op, e.Value)
}

// NewPanicError captures the current goroutine's stack around a recovered
// panic value. Call it from inside the deferred recover handler.
func NewPanicError(op string, value any) *PanicError {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &PanicError{Op: op, Value: value, Stack: buf}
}

// RecoverTo is a deferred one-liner for the common containment shape:
//
//	defer fault.RecoverTo(&err, "job")
//
// If the function is panicking, the panic is recovered into *errp as a
// *PanicError (overwriting any earlier error — the panic is the more
// urgent fact).
func RecoverTo(errp *error, op string) {
	if r := recover(); r != nil {
		*errp = NewPanicError(op, r)
	}
}
