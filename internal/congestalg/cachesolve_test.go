package congestalg

import (
	"math/rand"
	"testing"

	"congestlb/internal/congest"
	"congestlb/internal/mis/cache"
)

// TestGossipExactSolvesOncePerDistinctGraph is the tentpole property of the
// solve cache: in one GossipExact run every node reconstructs the identical
// network graph, so the n local solves must collapse to exactly one
// branch-and-bound (one cache miss) plus n-1 hits.
func TestGossipExactSolvesOncePerDistinctGraph(t *testing.T) {
	g := randomGraph(14, 0.3, 6, rand.New(rand.NewSource(21)))
	n := g.N()

	sess := cache.NewSession(cache.New(0))
	result := runPrograms(t, g, NewGossipExactProgramsWith(sess, n), congest.Config{Seed: 9})
	if _, err := ExactSetFromOutputs(result); err != nil {
		t.Fatal(err)
	}
	stats := sess.Stats()
	if stats.Misses != 1 {
		t.Fatalf("expected exactly one exact solve for one distinct graph, got %d misses (%+v)",
			stats.Misses, stats)
	}
	if stats.Hits != uint64(n-1) {
		t.Fatalf("expected %d cache hits (one per remaining node), got %d (%+v)",
			n-1, stats.Hits, stats)
	}

	// A second run of the same network on the same session is pure hits:
	// the graph content is unchanged, so even the first node's solve is
	// served from cache.
	result = runPrograms(t, g, NewGossipExactProgramsWith(sess, n), congest.Config{Seed: 10})
	if _, err := ExactSetFromOutputs(result); err != nil {
		t.Fatal(err)
	}
	stats = sess.Stats()
	if stats.Misses != 1 || stats.Hits != uint64(2*n-1) {
		t.Fatalf("second run should be all hits: %+v", stats)
	}
}

// TestGossipExactSessionlessRunsShareNothing pins the session-less
// constructor: its n programs share one session over a cache of their
// own, so every run books exactly one miss and n-1 hits, however many runs
// came before it.
func TestGossipExactSessionlessRunsShareNothing(t *testing.T) {
	g := randomGraph(14, 0.3, 6, rand.New(rand.NewSource(21)))
	n := g.N()
	for run := 0; run < 2; run++ {
		programs := NewGossipExactPrograms(n)
		sess := programs[0].(*GossipExact).sess
		for _, p := range programs {
			if p.(*GossipExact).sess != sess {
				t.Fatal("session-less programs of one run do not share a session")
			}
		}
		if _, err := ExactSetFromOutputs(runPrograms(t, g, programs, congest.Config{Seed: 9})); err != nil {
			t.Fatal(err)
		}
		if st := sess.Stats(); st.Misses != 1 || st.Hits != uint64(n-1) {
			t.Fatalf("run %d: want 1 miss + %d hits, got %+v", run, n-1, st)
		}
	}
}

// TestGossipExactCachedMatchesUncached runs the same GossipExact network
// with every node solving directly (a nil session) and on the session-less
// constructor's own cache, and requires identical outputs and identical
// run statistics: the cache must be invisible to every consumer of the
// results.
func TestGossipExactCachedMatchesUncached(t *testing.T) {
	g := randomGraph(12, 0.35, 5, rand.New(rand.NewSource(33)))
	n := g.N()

	uncached := runPrograms(t, g, NewGossipExactProgramsWith(nil, n), congest.Config{Seed: 4})
	uncachedSet, err := ExactSetFromOutputs(uncached)
	if err != nil {
		t.Fatal(err)
	}
	cached := runPrograms(t, g, NewGossipExactPrograms(n), congest.Config{Seed: 4})
	cachedSet, err := ExactSetFromOutputs(cached)
	if err != nil {
		t.Fatal(err)
	}

	if uncached.Stats != cached.Stats {
		t.Fatalf("run stats changed under caching: %+v vs %+v", uncached.Stats, cached.Stats)
	}
	if len(uncachedSet) != len(cachedSet) {
		t.Fatalf("solution size changed under caching: %v vs %v", uncachedSet, cachedSet)
	}
	for i := range uncachedSet {
		if uncachedSet[i] != cachedSet[i] {
			t.Fatalf("solution changed under caching: %v vs %v", uncachedSet, cachedSet)
		}
	}
}

// TestCollectSolveUsesCache pins the other exact algorithm to the cache as
// well: the root's single solve registers in its session's counters.
func TestCollectSolveUsesCache(t *testing.T) {
	g := randomGraph(10, 0.3, 5, rand.New(rand.NewSource(55)))
	sess := cache.NewSession(cache.New(0))
	result := runPrograms(t, g, NewCollectSolveProgramsWith(sess, g.N()), congest.Config{Seed: 2})
	set := MembershipSet(result)
	if len(set) == 0 {
		t.Fatal("collect-solve produced an empty set")
	}
	stats := sess.Stats()
	if stats.Misses != 1 || stats.Hits != 0 {
		t.Fatalf("collect-solve root solve not routed through the cache: %+v", stats)
	}
}
