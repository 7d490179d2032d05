package congestlb_test

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"congestlb"
	"congestlb/internal/graphs"
)

// loadTestGraph builds a random weighted graph heavy enough to count
// solver steps but quick to solve.
func loadTestGraph(seed int64) *congestlb.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graphs.NewWithN(30)
	for v := 0; v < 30; v++ {
		g.AddNodeID(1 + rng.Int63n(6))
	}
	for u := 0; u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			if rng.Float64() < 0.3 {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

func TestSharedSolveTierAcrossLabs(t *testing.T) {
	tier := congestlb.NewSharedSolveTier(16)
	cold, err := congestlb.New(congestlb.WithSharedSolveTier(tier))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	warm, err := congestlb.New(congestlb.WithSharedSolveTier(tier))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	g := loadTestGraph(21)
	ctx := context.Background()
	first, err := cold.ExactMaxISGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	second, err := warm.ExactMaxISGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if first.Weight != second.Weight {
		t.Fatalf("tier-served weight %d, want %d", second.Weight, first.Weight)
	}
	cs, ws := cold.SolveCacheStats(), warm.SolveCacheStats()
	if cs.Misses != 1 || cs.SharedHits != 0 {
		t.Fatalf("cold Lab stats: %+v", cs)
	}
	if ws.Misses != 0 || ws.SharedHits != 1 || ws.StepsSolved != 0 {
		t.Fatalf("warm Lab stats: %+v", ws)
	}
	if ts := tier.Stats(); ts.Entries != 1 || ts.Hits != 1 {
		t.Fatalf("tier stats: %+v", ts)
	}
}

func TestLabLoad(t *testing.T) {
	lab, err := congestlb.New(congestlb.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	ls := lab.Load()
	if ls.QueueDepth != 0 || ls.PoolWorkers != 0 || ls.ActiveRuns != 0 || ls.Closed {
		t.Fatalf("fresh Lab load: %+v", ls)
	}
	if _, err := lab.RunExperiments(context.Background(), []string{"lemma1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	ls = lab.Load()
	if ls.PoolWorkers != 2 {
		t.Fatalf("PoolWorkers after run = %d, want 2", ls.PoolWorkers)
	}
	if ls.ActiveRuns != 0 || ls.QueueDepth != 0 {
		t.Fatalf("idle Lab load after run: %+v", ls)
	}
	if err := lab.Close(); err != nil {
		t.Fatal(err)
	}
	if ls = lab.Load(); !ls.Closed || ls.QueueDepth != 0 {
		t.Fatalf("closed Lab load: %+v", ls)
	}
}
