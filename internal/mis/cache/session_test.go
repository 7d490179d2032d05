package cache

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"congestlb/internal/fault"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
	"congestlb/internal/obs"
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

// TestBookingAgreesAcrossViews drives one cache through every kind of
// lookup outcome — private, shared-tier and disk hits, a corrupt disk
// entry, a retried disk read, a degraded and a budget-capped solve — from
// three sessions, with a registry attached. Each event is one delta
// booked into the cache, the calling session and the registry, so the
// sessions sum to the cache's counters and every registry counter with a
// Stats field reads that field.
func TestBookingAgreesAcrossViews(t *testing.T) {
	gShared := randomGraph(14, 0.3, 5, rand.New(rand.NewSource(1)))
	gDisk := randomGraph(14, 0.3, 5, rand.New(rand.NewSource(2)))
	gCorrupt := randomGraph(14, 0.3, 5, rand.New(rand.NewSource(3)))
	gPanic := randomGraph(14, 0.3, 5, rand.New(rand.NewSource(4)))
	gCapped := randomGraph(20, 0.3, 5, rand.New(rand.NewSource(5)))

	// A second cache fills the shared tier; a third leaves one valid and
	// one corrupt entry on disk.
	tier := NewSharedTier(16)
	filler := New(8)
	filler.SetSharedTier(tier)
	if _, err := filler.Exact(gShared, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seeder := New(8)
	if err := seeder.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graphs.Graph{gDisk, gCorrupt} {
		if _, err := seeder.Exact(g, mis.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	key, _ := KeyOf(gCorrupt, mis.Options{})
	if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(key[:])+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c := New(8)
	c.SetRegistry(reg)
	c.SetSharedTier(tier)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	sess := []*Session{NewSession(c), NewSession(c), NewSession(c)}
	solve := func(s *Session, g *graphs.Graph, opts mis.Options) error {
		_, err := s.Exact(g, opts)
		return err
	}
	for _, step := range []struct {
		s    *Session
		g    *graphs.Graph
		opts mis.Options
	}{
		{sess[0], gShared, mis.Options{}},  // shared-tier hit
		{sess[1], gShared, mis.Options{}},  // private hit
		{sess[1], gDisk, mis.Options{}},    // disk hit
		{sess[2], gDisk, mis.Options{}},    // private hit
		{sess[2], gCorrupt, mis.Options{}}, // quarantine, solve, store
	} {
		if err := solve(step.s, step.g, step.opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := solve(sess[0], gCapped, mis.Options{MaxSteps: 1}); !errors.Is(err, mis.ErrBudgetExceeded) {
		t.Fatalf("capped solve: %v, want ErrBudgetExceeded", err)
	}
	armFaults(t, "1:worker-panic@w*1,disk-read*1")
	var pe *fault.PanicError
	if err := solve(sess[1], gPanic, mis.Options{}); !errors.As(err, &pe) {
		t.Fatalf("armed solve: %v, want a degraded solve", err)
	}
	// The degraded solve was not cached: the retry solves and stores.
	if err := solve(sess[2], gPanic, mis.Options{}); err != nil {
		t.Fatal(err)
	}

	var sum Stats
	for _, s := range sess {
		sum.Add(s.Stats())
	}
	got := c.Stats()
	got.Evictions, got.Entries = 0, 0
	if sum != got {
		t.Fatalf("sessions sum to %+v, cache booked %+v", sum, got)
	}
	for name, v := range map[string]uint64{
		"Hits":            got.Hits,
		"Misses":          got.Misses,
		"SharedHits":      got.SharedHits,
		"DiskHits":        got.DiskHits,
		"DiskMisses":      got.DiskMisses,
		"DiskWrites":      got.DiskWrites,
		"DiskRetries":     got.DiskRetries,
		"DiskQuarantined": got.DiskQuarantined,
		"DegradedSolves":  got.DegradedSolves,
		"StepsSolved":     uint64(got.StepsSolved),
		"StepsSaved":      uint64(got.StepsSaved),
	} {
		if v == 0 {
			t.Errorf("%s is 0: the scenario missed an outcome (%+v)", name, got)
		}
	}
	snap := reg.Snapshot()
	for _, m := range []struct {
		name string
		want int64
	}{
		{obs.MSolveCacheHits, int64(got.Hits)},
		{obs.MSolveCacheMisses, int64(got.Misses)},
		{obs.MSolveCacheSharedHits, int64(got.SharedHits)},
		{obs.MSolveCacheDiskHits, int64(got.DiskHits)},
		{obs.MSolveCacheDiskMisses, int64(got.DiskMisses)},
		{obs.MSolveCacheDiskRetries, int64(got.DiskRetries)},
		{obs.MSolveCacheDiskQuarantined, int64(got.DiskQuarantined)},
		{obs.MSolverDegradedSolves, int64(got.DegradedSolves)},
		{obs.MSolveSteps, got.StepsSolved},
		{obs.MSolveStepsSaved, got.StepsSaved},
	} {
		if v := snap.Counter(m.name); v != m.want {
			t.Errorf("registry %s = %d, Stats says %d", m.name, v, m.want)
		}
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

// TestBookAllocatesNothing: booking a lookup's delta allocates nothing,
// with no registry attached (where it returns at once) and with one.
func TestBookAllocatesNothing(t *testing.T) {
	c := New(1)
	sess := NewSession(c)
	d := Stats{Hits: 1, SharedHits: 1, StepsSaved: 3}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		c.SetRegistry(reg)
		if n := testing.AllocsPerRun(100, func() { c.book(sess, d) }); n != 0 {
			t.Errorf("registry attached %v: book allocates %v times", reg != nil, n)
		}
	}
}
