package cache

import (
	"math/rand"
	"sync"
	"testing"

	"congestlb/internal/mis"
	"congestlb/internal/obs"
)

func TestSharedTierCrossCacheDedup(t *testing.T) {
	tier := NewSharedTier(16)
	a, b := New(8), New(8)
	a.SetSharedTier(tier)
	b.SetSharedTier(tier)
	g := randomGraph(30, 0.3, 6, rand.New(rand.NewSource(7)))

	cold, err := a.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := b.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Weight != warm.Weight || !warm.Optimal {
		t.Fatalf("tier-served solve differs: %+v vs %+v", cold, warm)
	}

	sa, sb := a.Stats(), b.Stats()
	if sa.Misses != 1 || sa.SharedHits != 0 {
		t.Fatalf("cold cache stats: %+v", sa)
	}
	// The acceptance-criterion shape: exactly one miss *total* across both
	// caches, with the second solve booked as a shared hit, zero fresh
	// branch-and-bound steps on its behalf.
	if sb.Misses != 0 || sb.Hits != 1 || sb.SharedHits != 1 || sb.StepsSolved != 0 {
		t.Fatalf("warm cache stats: %+v", sb)
	}
	if sb.StepsSaved != cold.Steps {
		t.Fatalf("warm StepsSaved = %d, want %d", sb.StepsSaved, cold.Steps)
	}

	// The tier hit filled b's private cache: the next lookup is an
	// ordinary private hit, not another tier consultation.
	if _, err := b.Exact(g, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	sb = b.Stats()
	if sb.Hits != 2 || sb.SharedHits != 1 {
		t.Fatalf("private fill stats: %+v", sb)
	}

	ts := tier.Stats()
	if ts.Hits != 1 || ts.Puts != 1 || ts.Entries != 1 {
		t.Fatalf("tier stats: %+v", ts)
	}
}

func TestSharedTierIsolationAcrossKeys(t *testing.T) {
	tier := NewSharedTier(16)
	a, b := New(8), New(8)
	a.SetSharedTier(tier)
	b.SetSharedTier(tier)
	rng := rand.New(rand.NewSource(11))
	ga := randomGraph(25, 0.3, 5, rng)
	gb := randomGraph(25, 0.3, 5, rng)

	if _, err := a.Exact(ga, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exact(gb, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	// Distinct graphs share nothing: both caches miss, the tier records
	// two failed consultations and two publications.
	if sa, sb := a.Stats(), b.Stats(); sa.SharedHits != 0 || sb.SharedHits != 0 || sa.Misses != 1 || sb.Misses != 1 {
		t.Fatalf("distinct-key stats: %+v / %+v", sa, sb)
	}
	if ts := tier.Stats(); ts.Hits != 0 || ts.Misses != 2 || ts.Entries != 2 {
		t.Fatalf("tier stats: %+v", ts)
	}
}

func TestSharedTierEviction(t *testing.T) {
	tier := NewSharedTier(2)
	c := New(8)
	c.SetSharedTier(tier)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		if _, err := c.Exact(randomGraph(15, 0.3, 4, rng), mis.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := tier.Stats()
	if ts.Entries != 2 || ts.Evictions != 2 || ts.Puts != 4 {
		t.Fatalf("bounded tier stats: %+v", ts)
	}
}

func TestSharedTierConcurrentCaches(t *testing.T) {
	tier := NewSharedTier(64)
	g := randomGraph(28, 0.3, 5, rand.New(rand.NewSource(9)))
	const caches = 8
	var wg sync.WaitGroup
	weights := make([]int64, caches)
	for i := 0; i < caches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := New(4)
			c.SetSharedTier(tier)
			sol, err := c.Exact(g, mis.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			weights[i] = sol.Weight
		}(i)
	}
	wg.Wait()
	for i := 1; i < caches; i++ {
		if weights[i] != weights[0] {
			t.Fatalf("weight[%d] = %d, want %d", i, weights[i], weights[0])
		}
	}
	// Races may cost duplicate solves but never a wrong answer; the tier
	// ends with exactly one entry for the one distinct graph.
	if ts := tier.Stats(); ts.Entries != 1 {
		t.Fatalf("tier entries = %d, want 1 (%+v)", ts.Entries, ts)
	}
}

func TestSharedTierRegistryCounter(t *testing.T) {
	tier := NewSharedTier(16)
	a, b := New(8), New(8)
	a.SetSharedTier(tier)
	b.SetSharedTier(tier)
	reg := obs.NewRegistry()
	b.SetRegistry(reg)
	g := pathGraph(10)
	if _, err := a.Exact(g, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exact(g, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counter(obs.MSolveCacheSharedHits) != 1 {
		t.Fatalf("shared-hits counter = %d, want 1", snap.Counter(obs.MSolveCacheSharedHits))
	}
	// The registry's hit counter stays sum-consistent with Stats.Hits —
	// the invariant benchjson's metrics cross-check relies on.
	if snap.Counter(obs.MSolveCacheHits) != int64(b.Stats().Hits) {
		t.Fatalf("hits counter %d != stats hits %d", snap.Counter(obs.MSolveCacheHits), b.Stats().Hits)
	}
}
