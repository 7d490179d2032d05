package cache

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

// TestSessionExactAttribution is the satellite property the runner relies
// on: concurrent sessions over one cache each see exactly their own
// traffic, and the per-session counters sum to the cache totals.
func TestSessionExactAttribution(t *testing.T) {
	c := New(32)
	const sessions = 4
	const solvesPer = 6
	// Each session gets its own family of graphs plus one graph shared by
	// everyone, so both distinct and contended keys are exercised.
	shared := randomGraph(16, 0.3, 5, rand.New(rand.NewSource(7)))
	graphsBySession := make([][]*graphs.Graph, sessions)
	for si := range graphsBySession {
		for j := 0; j < solvesPer; j++ {
			graphsBySession[si] = append(graphsBySession[si],
				randomGraph(12+si, 0.3, 5, rand.New(rand.NewSource(int64(100*si+j)))))
		}
	}

	sess := make([]*Session, sessions)
	var wg sync.WaitGroup
	for si := 0; si < sessions; si++ {
		sess[si] = NewSession(c)
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for _, g := range graphsBySession[si] {
				if _, err := sess[si].Exact(g, mis.Options{}); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := sess[si].Exact(shared, mis.Options{}); err != nil {
				t.Error(err)
			}
		}(si)
	}
	wg.Wait()

	var sum Stats
	for si := 0; si < sessions; si++ {
		st := sess[si].Stats()
		if st.Hits+st.Misses != solvesPer+1 {
			t.Fatalf("session %d saw %d lookups, did %d", si, st.Hits+st.Misses, solvesPer+1)
		}
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.StepsSolved += st.StepsSolved
		sum.StepsSaved += st.StepsSaved
	}
	total := c.Stats()
	if sum.Hits != total.Hits || sum.Misses != total.Misses {
		t.Fatalf("session sums %+v disagree with cache totals %+v", sum, total)
	}
	if sum.StepsSolved != total.StepsSolved || sum.StepsSaved != total.StepsSaved {
		t.Fatalf("step attribution leaked: sessions %+v, cache %+v", sum, total)
	}
}

// TestNilSessionSolvesDirectly keeps the nil-receiver contract deep
// callers (CONGEST programs without a session) depend on: the solve runs
// directly, exactly as mis.Exact would, and nothing is counted.
func TestNilSessionSolvesDirectly(t *testing.T) {
	g := randomGraph(10, 0.4, 4, rand.New(rand.NewSource(9)))
	var s *Session
	got, err := s.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mis.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nil session solve %+v, mis.Exact %+v", got, want)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil session has stats: %+v", st)
	}
}

// TestSessionUncachedFallback keeps attribution exact on a session over no
// cache (the configuration the cached-vs-uncached comparison tests run
// under): every solve runs and books a miss.
func TestSessionUncachedFallback(t *testing.T) {
	g := randomGraph(12, 0.35, 5, rand.New(rand.NewSource(17)))
	s := NewSession(nil)
	var steps int64
	for i := 0; i < 2; i++ {
		sol, err := s.Exact(g, mis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		steps += sol.Steps
	}
	st := s.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("uncached fallback stats: %+v", st)
	}
	if st.StepsSolved != steps {
		t.Fatalf("uncached fallback steps %d, want %d", st.StepsSolved, steps)
	}
}
