package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"congestlb"
	"congestlb/internal/serve"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	// clients is the closed-loop client count (capped at the CPU count).
	clients int
	// tail is the reported tail percentile: the highest of 99/95/90 with
	// at least ten samples beyond it in a full-length run of this
	// workload on a 2-CPU host.
	tail   float64
	warmup func(s sizes) int
	open   func(r *run) (bench, error)
}

// bench is one set-up instance of a workload.
type bench interface {
	// op prepares operation i of the seeded sequence (untimed) and
	// returns the call whose duration is the operation's latency, and the
	// check its output must pass (untimed). Traced calls record spans
	// under sp; sp is nil when the operation is not traced.
	op(i int) (call func(sp *active) error, check func() error, err error)
	// notes are human-readable result lines beyond the metrics.
	notes() []string
	close() error
}

// workloads are the traffic mixes the benchmark runs. BENCHMARK.json and
// README.md give the reason for each.
var workloads = []workload{
	{
		name:    "suite",
		clients: 1,
		tail:    90,
		warmup:  func(s sizes) int { return s.suiteWarmup },
		open:    openSuite,
	},
	{
		name:    "reduce",
		clients: 1,
		tail:    90,
		warmup:  func(s sizes) int { return s.reduceWarmup },
		open:    openReduce,
	},
	{
		name:    "solve-mix",
		clients: 2,
		tail:    99,
		warmup:  func(s sizes) int { return s.mixWarmup },
		open:    openMix,
	},
	{
		name:    "solve-hard",
		clients: 1,
		tail:    99,
		warmup:  func(s sizes) int { return s.hardWarmup },
		open:    openHard,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type suiteBench struct {
	r *run
}

func openSuite(r *run) (bench, error) { return &suiteBench{r: r}, nil }

func (b *suiteBench) op(int) (func(*active) error, func() error, error) {
	var report bytes.Buffer
	var env congestlb.ExperimentEnvelope
	call := func(sp *active) error {
		s := sp.child("lab.New")
		lab, err := congestlb.New(congestlb.WithJobs(b.r.nproc))
		s.end()
		if err != nil {
			return err
		}
		s = sp.child("lab.RunExperiments")
		env, err = lab.RunExperiments(context.Background(), nil, &report)
		setEnvelopeAttrs(s, env)
		s.end()
		s = sp.child("lab.Close")
		cerr := lab.Close()
		s.end()
		if err != nil {
			return err
		}
		return cerr
	}
	check := func() error { return b.r.checkSuite(env, report.Bytes()) }
	return call, check, nil
}

// suiteExps are the experiments whose wall time is reported per layer:
// the heaviest ones and the ones an open ROADMAP item targets.
var suiteExps = []string{"scaling", "theorem5", "cutsize", "codes", "upperbounds", "theorem3"}

// setEnvelopeAttrs copies the envelope's runner, cache and per-experiment
// figures onto the RunExperiments span.
func setEnvelopeAttrs(s *active, env congestlb.ExperimentEnvelope) {
	if s == nil {
		return
	}
	s.set("wall_ms", env.WallMS)
	s.set("sequential_ms", env.SequentialMS)
	s.set("jobs", float64(env.Jobs))
	s.set("cache_hits", float64(env.Cache.Hits))
	s.set("cache_misses", float64(env.Cache.Misses))
	s.set("lbgraph_hits", float64(env.LBGraph.Hits))
	s.set("lbgraph_misses", float64(env.LBGraph.Misses))
	var jobs int64
	for _, e := range env.Experiments {
		jobs += e.InstanceJobs
		s.set("exp_ms."+e.ID, e.WallMS)
	}
	s.set("instance_jobs", float64(jobs))
}

func (b *suiteBench) notes() []string {
	b.r.mu.Lock()
	defer b.r.mu.Unlock()
	return []string{"suite.report_sha256 " + b.r.suiteSHA}
}

func (b *suiteBench) close() error { return nil }

// checkSuite verifies one suite run: every experiment passed and the
// report is byte-identical to every other run in the process.
func (r *run) checkSuite(env congestlb.ExperimentEnvelope, report []byte) error {
	if env.Failed != 0 || env.OK != len(congestlb.AllExperiments()) {
		var failed []string
		for _, e := range env.Experiments {
			if e.Status != "ok" {
				failed = append(failed, e.ID+": "+e.Error)
			}
		}
		return fmt.Errorf("suite: %d ok, %d failed: %s", env.OK, env.Failed, strings.Join(failed, "; "))
	}
	sum := sha256.Sum256(report)
	got := hex.EncodeToString(sum[:])
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.suiteSHA == "" {
		r.suiteSHA = got
	}
	if got != r.suiteSHA {
		return fmt.Errorf("suite: report sha256 %s differs from the first run's %s", got, r.suiteSHA)
	}
	return nil
}

// service is an in-process congestlbd on a loopback port.
type service struct {
	srv  *serve.Server
	http *serve.HTTPServer
	c    *client
	keys []string
}

func startService(tenants, conns int) (*service, error) {
	cfg := serve.Config{}
	var keys []string
	for t := 0; t < tenants; t++ {
		key := fmt.Sprintf("bench-key-%d", t)
		cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{Name: fmt.Sprintf("tenant%d", t), APIKey: key})
		keys = append(keys, key)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	hs, err := serve.StartHTTP("127.0.0.1:0", srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &service{srv: srv, http: hs, c: newClient(hs.URL(), conns), keys: keys}, nil
}

func (s *service) close() error {
	s.c.close()
	herr := s.http.Shutdown(shutdownGrace)
	if err := s.srv.Close(); err != nil {
		return err
	}
	return herr
}

// reduceFamily is one of the two constructions the reduce traffic
// alternates between.
type reduceFamily struct {
	name   string
	params serve.ParamsSpec
	fam    congestlb.Family
}

func reduceFamilies() ([]reduceFamily, error) {
	lin := serve.ParamsSpec{T: 3, Alpha: 1, Ell: 4}
	quad := serve.ParamsSpec{T: 2, Alpha: 1, Ell: 3}
	linFam, err := congestlb.NewLinear(congestlb.Params(lin))
	if err != nil {
		return nil, err
	}
	quadFam, err := congestlb.NewQuadratic(congestlb.Params(quad))
	if err != nil {
		return nil, err
	}
	return []reduceFamily{{"linear", lin, linFam}, {"quadratic", quad, quadFam}}, nil
}

// reduceInputs draws one promise instance for f: pairwise disjoint (the
// TRUE case) or uniquely intersecting.
func reduceInputs(f reduceFamily, seed int64, disjoint bool) (congestlb.Inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	k, t := f.fam.InputBits(), f.params.T
	if disjoint {
		return congestlb.RandomPairwiseDisjoint(k, t, 0.3, rng)
	}
	in, _, err := congestlb.RandomUniquelyIntersecting(k, t, 0.3, rng)
	return in, err
}

type reduceBench struct {
	r    *run
	svc  *service
	fams []reduceFamily
}

func openReduce(r *run) (bench, error) {
	fams, err := reduceFamilies()
	if err != nil {
		return nil, err
	}
	svc, err := startService(1, 1)
	if err != nil {
		return nil, err
	}
	return &reduceBench{r: r, svc: svc, fams: fams}, nil
}

// op i runs family i%2 on the disjoint case when (i/2)%2 is 1, so every
// four consecutive operations cover both families and both cases.
func (b *reduceBench) op(i int) (func(*active) error, func() error, error) {
	f := b.fams[i%2]
	disjoint := (i/2)%2 == 1
	seed := opSeed(b.r.seed, "reduce", i)
	in, err := reduceInputs(f, seed, disjoint)
	if err != nil {
		return nil, nil, err
	}
	wire := make([]string, len(in))
	for p, v := range in {
		bits := make([]byte, v.Len())
		for j := range bits {
			bits[j] = '0'
			if v.Get(j) {
				bits[j] = '1'
			}
		}
		wire[p] = string(bits)
	}
	body, err := json.Marshal(serve.ReduceRequest{
		Family: f.name,
		Params: f.params,
		Inputs: wire,
		Config: serve.CongestSpec{Parallel: true, Seed: seed},
	})
	if err != nil {
		return nil, nil, err
	}
	var res serve.ReduceResult
	call := func(sp *active) error {
		status, err := b.svc.c.post(sp, "/v1/reduce", b.svc.keys[0], body, &res)
		markRejected(sp, status)
		return err
	}
	check := func() error {
		if !res.Correct || !res.AccountingHolds || res.Truth != disjoint {
			return fmt.Errorf("reduce op %d (%s, disjoint=%v): correct=%v accounting_holds=%v truth=%v",
				i, f.name, disjoint, res.Correct, res.AccountingHolds, res.Truth)
		}
		return nil
	}
	return call, check, nil
}

func (b *reduceBench) notes() []string { return nil }
func (b *reduceBench) close() error    { return b.svc.close() }

// markRejected flags a request the service turned away (429 or 503).
func markRejected(sp *active, status int) {
	if status == 429 || status == 503 {
		sp.set("rejected", 1)
	}
}

// checkSolve verifies a served solve: optimal, not cut short, and an
// independent set of the claimed weight.
func checkSolve(g *congestlb.Graph, res serve.SolveResult) error {
	if res.Cancelled {
		return fmt.Errorf("solve: cancelled")
	}
	return checkOptimalSet(g, res.Optimal, res.Set, res.Weight)
}

// checkOptimalSet verifies a solver's answer against the graph: flagged
// optimal, and set is an independent set weighing weight.
func checkOptimalSet(g *congestlb.Graph, optimal bool, set []int, weight int64) error {
	if !optimal {
		return fmt.Errorf("solve: not optimal")
	}
	w, err := congestlb.VerifyIndependent(g, set)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if w != weight {
		return fmt.Errorf("solve: set weighs %d, answer says %d", w, weight)
	}
	return nil
}

// cacheOutcome is the tier that answered a solve.
type cacheOutcome int

const (
	hitPrivate cacheOutcome = iota
	hitShared
	fresh
)

var outcomeNames = [...]string{"hit_private", "hit_shared", "fresh"}

// outcome classifies a solve's cache attribution and flags it on the
// operation's span.
func outcome(sp *active, st congestlb.SolveCacheStats) (cacheOutcome, error) {
	var o cacheOutcome
	switch {
	case st.Misses == 1 && st.Hits == 0:
		o = fresh
	case st.Hits == 1 && st.SharedHits == 1:
		o = hitShared
	case st.Hits == 1 && st.Misses == 0:
		o = hitPrivate
	default:
		return 0, fmt.Errorf("solve: unexpected cache attribution %+v", st)
	}
	sp.set(outcomeNames[o], 1)
	return o, nil
}

// tally counts the cache outcomes of timed solves and the
// branch-and-bound steps of the fresh ones.
type tally struct {
	n     [len(outcomeNames)]atomic.Int64
	steps atomic.Int64
}

func (t *tally) add(o cacheOutcome, steps int64) {
	t.n[o].Add(1)
	if o == fresh {
		t.steps.Add(steps)
	}
}

// notes reports the outcome mix and the mean steps of a fresh solve.
func (t *tally) notes(workload string) []string {
	var total int64
	for i := range t.n {
		total += t.n[i].Load()
	}
	if total == 0 {
		return nil
	}
	var notes []string
	for i, name := range outcomeNames {
		notes = append(notes, fmt.Sprintf("%s.%s_share %.4f of %d requests", workload, name, float64(t.n[i].Load())/float64(total), total))
	}
	if nf := t.n[fresh].Load(); nf > 0 {
		notes = append(notes, fmt.Sprintf("%s.fresh_steps_mean %.1f", workload, float64(t.steps.Load())/float64(nf)))
	}
	return notes
}

// mixUniverse generates the solve-mix graph population.
func mixUniverse(seed int64, n int) ([]graphCase, error) {
	out := make([]graphCase, n)
	for g := range out {
		rng := rand.New(rand.NewSource(opSeed(seed, "solve-mix.universe", g)))
		var err error
		if out[g], err = randomGraph(rng, 48+rng.Intn(17), 0.2); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mixSequenceLen is the length of the Zipf draw sequence; operations past
// it wrap around.
const mixSequenceLen = 1 << 19

type mixBench struct {
	r        *run
	svc      *service
	warmup   int
	universe []graphCase
	seq      []uint16

	timed tally
}

func openMix(r *run) (bench, error) {
	universe, err := mixUniverse(r.seed, r.sizes.mixUniverse)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opSeed(r.seed, "solve-mix.zipf", 0)))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(universe)-1))
	seq := make([]uint16, mixSequenceLen)
	for i := range seq {
		seq[i] = uint16(z.Uint64())
	}
	r.initWeights(len(universe))
	svc, err := startService(2, 2)
	if err != nil {
		return nil, err
	}
	return &mixBench{r: r, svc: svc, warmup: r.sizes.mixWarmup, universe: universe, seq: seq}, nil
}

// op i solves universe graph seq[i] as tenant i%2.
func (b *mixBench) op(i int) (func(*active) error, func() error, error) {
	g := int(b.seq[i%len(b.seq)])
	gc := b.universe[g]
	var res serve.SolveResult
	var o cacheOutcome
	call := func(sp *active) error {
		status, err := b.svc.c.post(sp, "/v1/solve", b.svc.keys[i%2], gc.body, &res)
		markRejected(sp, status)
		if err != nil {
			return err
		}
		sp.set("steps", float64(res.Steps))
		o, err = outcome(sp, res.Cache)
		return err
	}
	check := func() error {
		if err := checkSolve(gc.graph, res); err != nil {
			return fmt.Errorf("solve-mix op %d (graph %d): %w", i, g, err)
		}
		if err := b.r.sameWeight(g, res.Weight); err != nil {
			return fmt.Errorf("solve-mix op %d: %w", i, err)
		}
		if i >= b.warmup {
			b.timed.add(o, res.Steps)
		}
		return nil
	}
	return call, check, nil
}

func (b *mixBench) notes() []string { return b.timed.notes("solve-mix") }
func (b *mixBench) close() error    { return b.svc.close() }

// initWeights sizes the per-graph weight record the first time a run
// opens the solve-mix universe; later set-ups regenerate the same graphs
// and share it.
func (r *run) initWeights(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.weights == nil {
		r.weights = make([]atomic.Int64, n)
	}
}

// sameWeight checks that graph g gets the same optimum on every request.
func (r *run) sameWeight(g int, w int64) error {
	if r.weights[g].CompareAndSwap(0, w) {
		return nil
	}
	if prev := r.weights[g].Load(); prev != w {
		return fmt.Errorf("graph %d answered %d, earlier %d", g, w, prev)
	}
	return nil
}

// hardGraph is operation i's solve-hard input.
func hardGraph(seed int64, i int) (graphCase, error) {
	return randomGraph(rand.New(rand.NewSource(opSeed(seed, "solve-hard", i))), 95, 0.28)
}

type hardBench struct {
	r      *run
	svc    *service
	warmup int
	timed  tally
}

func openHard(r *run) (bench, error) {
	svc, err := startService(1, 1)
	if err != nil {
		return nil, err
	}
	return &hardBench{r: r, svc: svc, warmup: r.sizes.hardWarmup}, nil
}

func (b *hardBench) op(i int) (func(*active) error, func() error, error) {
	gc, err := hardGraph(b.r.seed, i)
	if err != nil {
		return nil, nil, err
	}
	var res serve.SolveResult
	call := func(sp *active) error {
		status, err := b.svc.c.post(sp, "/v1/solve", b.svc.keys[0], gc.body, &res)
		markRejected(sp, status)
		if err != nil {
			return err
		}
		sp.set("steps", float64(res.Steps))
		o, err := outcome(sp, res.Cache)
		if err == nil && o != fresh {
			err = fmt.Errorf("solve-hard: graph %d was a cache %s, want a fresh solve", i, outcomeNames[o])
		}
		return err
	}
	check := func() error {
		if err := checkSolve(gc.graph, res); err != nil {
			return fmt.Errorf("solve-hard op %d: %w", i, err)
		}
		if i >= b.warmup {
			b.timed.add(fresh, res.Steps)
		}
		return nil
	}
	return call, check, nil
}

func (b *hardBench) notes() []string { return b.timed.notes("solve-hard") }

func (b *hardBench) close() error { return b.svc.close() }
