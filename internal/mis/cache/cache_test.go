package cache

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"congestlb/internal/graphs"
	"congestlb/internal/mis"
	"congestlb/internal/obs"
)

// pathGraph builds a weighted path 0-1-...-(n-1) with weight w(v)=v+1.
func pathGraph(n int) *graphs.Graph {
	g := graphs.New(n)
	for v := 0; v < n; v++ {
		g.AddNodeID(int64(v + 1))
	}
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1)
	}
	return g
}

func randomGraph(n int, p float64, maxW int64, rng *rand.Rand) *graphs.Graph {
	g := graphs.New(n)
	for v := 0; v < n; v++ {
		g.AddNodeID(1 + rng.Int63n(maxW))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

func TestHitMissAccounting(t *testing.T) {
	c := New(8)
	g := randomGraph(30, 0.3, 6, rand.New(rand.NewSource(1)))

	first, err := c.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("stats after two identical solves: %+v", s)
	}
	if s.StepsSolved != first.Steps || s.StepsSaved != second.Steps {
		t.Fatalf("step accounting: %+v (solve steps %d)", s, first.Steps)
	}
	if first.Weight != second.Weight || len(first.Set) != len(second.Set) {
		t.Fatalf("cached solution differs: %+v vs %+v", first, second)
	}
	direct, err := mis.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Weight != first.Weight {
		t.Fatalf("cache weight %d, direct %d", first.Weight, direct.Weight)
	}

	// A content-identical rebuild of the graph hits too.
	rebuilt := randomGraph(30, 0.3, 6, rand.New(rand.NewSource(1)))
	if _, err := c.Exact(rebuilt, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("content-identical rebuild missed: %+v", s)
	}
}

func TestReturnedSetIsACopy(t *testing.T) {
	c := New(8)
	g := pathGraph(6)
	first, err := c.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Set {
		first.Set[i] = -999
	}
	second, err := c.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mis.Verify(g, second.Set); err != nil {
		t.Fatalf("cached witness corrupted by caller mutation: %v", err)
	}
}

// TestKeyInsensitiveToInsertionOrder builds the same graph two ways —
// edges reversed, and edges in construction order added redundantly — and
// requires one key.
func TestKeyInsensitiveToInsertionOrder(t *testing.T) {
	weights := []int64{5, 3, 8, 1, 9, 4}
	edges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}}

	reversed := graphs.New(len(weights))
	for _, w := range weights {
		reversed.AddNodeID(w)
	}
	for i := len(edges) - 1; i >= 0; i-- {
		reversed.MustAddEdge(edges[i][1], edges[i][0])
	}

	redundant := graphs.New(len(weights))
	for _, w := range weights {
		redundant.AddNodeID(w)
	}
	for _, e := range edges {
		redundant.MustAddEdge(e[0], e[1])
		redundant.MustAddEdge(e[1], e[0]) // duplicate inserts are no-ops
	}

	k1, ok1 := KeyOf(reversed, mis.Options{})
	k2, ok2 := KeyOf(redundant, mis.Options{})
	if !ok1 || !ok2 {
		t.Fatal("cacheable graphs reported uncacheable")
	}
	if k1 != k2 {
		t.Fatal("same graph content hashed to different keys")
	}
}

func TestKeySeparatesDifferentContent(t *testing.T) {
	base := pathGraph(6)
	baseKey, _ := KeyOf(base, mis.Options{})

	extraEdge := pathGraph(6)
	extraEdge.MustAddEdge(0, 5)
	if k, _ := KeyOf(extraEdge, mis.Options{}); k == baseKey {
		t.Fatal("extra edge did not change the key")
	}

	otherWeight := pathGraph(6)
	otherWeight.SetWeight(3, 1000)
	if k, _ := KeyOf(otherWeight, mis.Options{}); k == baseKey {
		t.Fatal("weight change did not change the key")
	}

	if k, _ := KeyOf(base, mis.Options{MaxSteps: 7}); k == baseKey {
		t.Fatal("step budget did not change the key")
	}

	cover := [][]graphs.NodeID{{0, 1}, {2, 3}, {4, 5}}
	withCover, ok := KeyOf(base, mis.Options{CliqueCover: cover})
	if !ok {
		t.Fatal("valid cover reported uncacheable")
	}
	if withCover == baseKey {
		t.Fatal("cover did not change the key")
	}

	// The same partition with its parts listed in another order is the
	// same cover — the key must agree.
	permuted := [][]graphs.NodeID{{4, 5}, {0, 1}, {2, 3}}
	if k, _ := KeyOf(base, mis.Options{CliqueCover: permuted}); k != withCover {
		t.Fatal("part order changed the cover key")
	}

	// A genuinely different partition must not collide.
	other := [][]graphs.NodeID{{0}, {1, 2}, {3, 4}, {5}}
	if k, _ := KeyOf(base, mis.Options{CliqueCover: other}); k == withCover {
		t.Fatal("different partition hashed to the same key")
	}
}

func TestKeyRejectsMalformedCovers(t *testing.T) {
	g := pathGraph(4)
	for name, cover := range map[string][][]graphs.NodeID{
		"missing node": {{0, 1}, {2}},
		"repeated":     {{0, 1}, {1, 2}, {3}},
		"out of range": {{0, 1}, {2, 3}, {4}},
	} {
		if _, ok := KeyOf(g, mis.Options{CliqueCover: cover}); ok {
			t.Errorf("%s cover reported cacheable", name)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	rng := rand.New(rand.NewSource(7))
	g1 := randomGraph(12, 0.3, 4, rng)
	g2 := randomGraph(12, 0.3, 4, rng)
	g3 := randomGraph(12, 0.3, 4, rng)
	for _, g := range []*graphs.Graph{g1, g2, g3} {
		if _, err := c.Exact(g, mis.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("eviction stats: %+v", s)
	}
	// g1 was least recently used: it must have been the victim.
	if _, err := c.Exact(g1, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 4 || s.Hits != 0 {
		t.Fatalf("evicted entry served a hit: %+v", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(8)
	g := randomGraph(40, 0.1, 5, rand.New(rand.NewSource(5)))
	for i := 0; i < 2; i++ {
		sol, err := c.Exact(g, mis.Options{MaxSteps: 3})
		if !errors.Is(err, mis.ErrBudgetExceeded) {
			t.Fatalf("call %d: error = %v, want ErrBudgetExceeded", i, err)
		}
		if len(sol.Set) == 0 || sol.Optimal {
			t.Fatalf("call %d: budget-capped incumbent lost: %+v", i, sol)
		}
	}
	s := c.Stats()
	if s.Misses != 2 || s.Entries != 0 {
		t.Fatalf("failed solves were cached: %+v", s)
	}
}

// TestConcurrentSingleFlight hammers one key from many goroutines and
// requires exactly one miss: the in-flight solve must absorb every
// concurrent caller.
func TestConcurrentSingleFlight(t *testing.T) {
	c := New(8)
	g := randomGraph(40, 0.3, 6, rand.New(rand.NewSource(11)))
	const callers = 16
	var wg sync.WaitGroup
	weights := make([]int64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sol, err := c.Exact(g, mis.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			weights[i] = sol.Weight
		}(i)
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("single-flight violated: %+v", s)
	}
	for i := 1; i < callers; i++ {
		if weights[i] != weights[0] {
			t.Fatalf("caller %d got weight %d, caller 0 got %d", i, weights[i], weights[0])
		}
	}
}

// TestInflightSolveTakesNoSlot: a solve in flight sits outside the
// capacity bound. With capacity 1, a cached g1 stays servable while g2
// is being solved, and the cache never holds more than one completed
// solve; g2 takes g1's slot only when it completes.
func TestInflightSolveTakesNoSlot(t *testing.T) {
	c := New(1)
	rng := rand.New(rand.NewSource(3))
	g1 := randomGraph(12, 0.3, 4, rng)
	g2 := randomGraph(12, 0.3, 4, rng)
	if _, err := c.Exact(g1, mis.Options{}); err != nil {
		t.Fatal(err)
	}

	// Hold g2's solve in flight: its observer blocks on the seed event,
	// which every solve fires before it searches.
	seeded, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hold := obs.ObserverFunc(func(obs.ProgressEvent) {
		once.Do(func() { close(seeded); <-release })
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Exact(g2, mis.Options{Progress: hold})
		done <- err
	}()
	<-seeded

	if _, err := c.Exact(g1, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 || st.Entries > 1 {
		t.Fatalf("lookup of g1 while g2 is in flight: %+v, want 1 hit, 2 misses, no eviction, at most 1 entry", st)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after g2 completes: %+v, want 1 eviction, 1 entry", st)
	}
}
