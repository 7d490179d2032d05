package mis

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"congestlb/internal/graphs"
)

// parallelTestGraph returns a random graph above parallelMinNodes so the
// parallel engine actually engages for Workers > 1.
func parallelTestGraph(n int, prob float64, seed int64) *graphs.Graph {
	return randomGraph(n, prob, 9, rand.New(rand.NewSource(seed)))
}

// TestParallelMatchesSequentialRandom is the core equivalence property:
// at Workers ∈ {1, 2, 4, 8} on randomized graphs every solve returns not
// just the same optimal weight but the identical canonical witness set —
// parallel Solutions are bit-equal to sequential ones.
func TestParallelMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 8; trial++ {
		n := parallelMinNodes + rng.Intn(16)
		prob := 0.2 + 0.4*rng.Float64()
		g := randomGraph(n, prob, 9, rng)

		seq, err := Exact(g, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Optimal {
			t.Fatalf("trial %d: sequential solve not optimal", trial)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := Exact(g, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if par.Weight != seq.Weight {
				t.Fatalf("trial %d (n=%d p=%.2f) workers=%d: weight %d, sequential %d",
					trial, n, prob, workers, par.Weight, seq.Weight)
			}
			if !par.Optimal {
				t.Fatalf("trial %d workers=%d: not flagged optimal", trial, workers)
			}
			if w, err := Verify(g, par.Set); err != nil || w != par.Weight {
				t.Fatalf("trial %d workers=%d: witness invalid: w=%d err=%v", trial, workers, w, err)
			}
			if !reflect.DeepEqual(par.Set, seq.Set) {
				t.Fatalf("trial %d workers=%d: witness %v differs from sequential witness %v — canonicalisation broken",
					trial, workers, par.Set, seq.Set)
			}
		}
	}
}

// TestParallelSeedOptimalMatchesSequential targets the regime where the
// greedy seed is frequently already optimal (small weight range, so many
// optima tie): the sequential engine then returns the seed set untouched,
// and the parallel engine must return exactly the same set — not a
// canonical DFS prefix. Regression test for the unconditional
// canonicalisation bug.
func TestParallelSeedOptimalMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	seedOptimal := 0
	for trial := 0; trial < 60; trial++ {
		n := parallelMinNodes + rng.Intn(8)
		g := randomGraph(n, 0.3+0.3*rng.Float64(), 3, rng)
		seq, err := Exact(g, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if Greedy(g, GreedyByRatio).Weight == seq.Weight {
			seedOptimal++
		}
		par, err := Exact(g, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Weight != seq.Weight || !reflect.DeepEqual(par.Set, seq.Set) {
			t.Fatalf("trial %d (n=%d): parallel %v (w=%d) != sequential %v (w=%d)",
				trial, n, par.Set, par.Weight, seq.Set, seq.Weight)
		}
	}
	if seedOptimal == 0 {
		t.Fatal("test never hit the seed-optimal regime; tighten the weight range")
	}
}

// TestParallelWitnessDeterministic re-solves the same graph repeatedly at
// the same worker count: the full Solution (set and weight) must be
// identical every time despite scheduling noise.
func TestParallelWitnessDeterministic(t *testing.T) {
	g := parallelTestGraph(parallelMinNodes+12, 0.35, 99)
	ref, err := Exact(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		got, err := Exact(g, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got.Weight != ref.Weight || !reflect.DeepEqual(got.Set, ref.Set) {
			t.Fatalf("run %d: solution %v (w=%d) differs from reference %v (w=%d)",
				run, got.Set, got.Weight, ref.Set, ref.Weight)
		}
	}
}

// TestParallelBudgetReturnsIncumbent pins the ErrBudgetExceeded contract
// under concurrency: the error surfaces, and the incumbent is a valid
// independent set at least as good as the greedy seed.
func TestParallelBudgetReturnsIncumbent(t *testing.T) {
	g := parallelTestGraph(parallelMinNodes+32, 0.15, 5)
	sol, err := Exact(g, Options{Workers: 4, MaxSteps: 3})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("error = %v, want ErrBudgetExceeded", err)
	}
	if sol.Optimal {
		t.Fatal("budget-capped solution claims optimality")
	}
	if len(sol.Set) == 0 {
		t.Fatal("budget-capped solution lost the incumbent set")
	}
	weight, err := Verify(g, sol.Set)
	if err != nil {
		t.Fatalf("incumbent is not independent: %v", err)
	}
	if weight != sol.Weight {
		t.Fatalf("incumbent weight %d, reported %d", weight, sol.Weight)
	}
	if greedy := Greedy(g, GreedyByRatio); sol.Weight < greedy.Weight {
		t.Fatalf("incumbent weight %d below greedy seed %d", sol.Weight, greedy.Weight)
	}
}

// TestParallelBudgetConcurrentSolves hammers budget-capped parallel solves
// from concurrent callers (the cache's single-flight normally prevents
// this, but the solver itself must tolerate it). Run with -race. The budget
// is a quarter of the unbudgeted sequential solve, so the test keeps
// exercising the budget path however much the bound improves.
func TestParallelBudgetConcurrentSolves(t *testing.T) {
	g := parallelTestGraph(parallelMinNodes+32, 0.2, 7)
	full, err := Exact(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	budget := max(full.Steps/4, 1)
	if full.Steps <= budget {
		t.Fatalf("unbudgeted solve took %d steps, not above the %d-step budget", full.Steps, budget)
	}
	// Parallel workers check the budget once per stepFlushBatch steps, so a
	// search shorter than one batch would finish before any check.
	if full.Steps <= stepFlushBatch {
		t.Fatalf("unbudgeted solve took %d steps, within one %d-step flush batch: pick a harder graph", full.Steps, stepFlushBatch)
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			sol, err := Exact(g, Options{Workers: 3, MaxSteps: budget})
			if !errors.Is(err, ErrBudgetExceeded) {
				done <- fmt.Errorf("error = %v, want ErrBudgetExceeded", err)
				return
			}
			if w, verr := Verify(g, sol.Set); verr != nil || w != sol.Weight {
				done <- fmt.Errorf("incumbent invalid: w=%d err=%v", w, verr)
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelSmallGraphFallsBackSequential documents the size gate: below
// parallelMinNodes the solve is sequential whatever Workers says, so tiny
// solves never pay goroutine startup.
func TestParallelSmallGraphFallsBackSequential(t *testing.T) {
	if got := resolveWorkers(8, parallelMinNodes-1); got != 1 {
		t.Fatalf("resolveWorkers(8, small) = %d, want 1", got)
	}
	if got := resolveWorkers(8, parallelMinNodes); got != 8 {
		t.Fatalf("resolveWorkers(8, %d) = %d, want 8", parallelMinNodes, got)
	}
	// And the result on a small graph is byte-for-byte the sequential one.
	g := randomGraph(20, 0.4, 6, rand.New(rand.NewSource(11)))
	seq, err := Exact(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Exact(g, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("small-graph solve changed under Workers=8: %+v vs %+v", par, seq)
	}
}

// TestResolveWorkers pins how Options.Workers resolves: an explicit count
// wins, and 0 means GOMAXPROCS.
func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(2, parallelMinNodes); got != 2 {
		t.Fatalf("resolveWorkers(2) = %d, explicit option must win", got)
	}
	if got, want := resolveWorkers(0, parallelMinNodes), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("resolveWorkers(0) = %d, want GOMAXPROCS %d", got, want)
	}
}

// exactBenchGraph is the hard random instance BenchmarkExactWorkers solves:
// G(95, 0.28), the shape of the service's solve-hard cache misses.
func exactBenchGraph() *graphs.Graph {
	return randomGraph(95, 0.28, 8, rand.New(rand.NewSource(17)))
}

// exactStepCeiling pins the sequential step count on exactBenchGraph: the
// measured 2,977 steps plus 5%. A bound that prunes worse fails here, in
// tier-1, instead of only showing up as a slower benchmark.
const exactStepCeiling = 3125

func TestExactStepCeiling(t *testing.T) {
	sol, err := Exact(exactBenchGraph(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Steps > exactStepCeiling {
		t.Fatalf("sequential solve took %d steps, above the committed ceiling %d: the bound regressed",
			sol.Steps, exactStepCeiling)
	}
}

// BenchmarkExactWorkers measures single-solve scaling of the parallel
// engine on a hard random instance (the cache-miss path every experiment
// bottlenecks on). docs/performance.md records the table; on a single-core
// host the interesting number is the parallel engine's overhead, on a
// multi-core one its speedup.
func BenchmarkExactWorkers(b *testing.B) {
	g := exactBenchGraph()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				sol, err := Exact(g, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				steps = sol.Steps
			}
			b.ReportMetric(float64(steps), "steps/op")
		})
	}
}

// TestParallelMatchesExhaustiveViaBigGraphs cross-checks the parallel
// engine against the sequential one on denser graphs where the clique
// bound prunes hard — the regime the lower-bound constructions live in.
func TestParallelDenseClique(t *testing.T) {
	// Disjoint cliques joined by random edges: the per-node clique
	// partition recovers the planted cliques, so the bound is tight and
	// canonicalisation must still terminate fast.
	rng := rand.New(rand.NewSource(42))
	n := parallelMinNodes + 16
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), 1+rng.Int63n(9))
	}
	cliqueSize := 8
	for c := 0; c*cliqueSize < n; c++ {
		lo := c * cliqueSize
		hi := lo + cliqueSize
		if hi > n {
			hi = n
		}
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				g.MustAddEdge(u, v)
			}
		}
	}
	for trial := 0; trial < 4*n; trial++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	seq, err := Exact(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Exact(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Weight != seq.Weight {
		t.Fatalf("clique graph: parallel weight %d, sequential %d", par.Weight, seq.Weight)
	}
	if w, err := Verify(g, par.Set); err != nil || w != par.Weight {
		t.Fatalf("clique graph witness invalid: w=%d err=%v", w, err)
	}
}
