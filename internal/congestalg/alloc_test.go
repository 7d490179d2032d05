package congestalg

import (
	"math/rand"
	"testing"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
)

// The wire append/decode round-trips are the per-message hot path of every
// CONGEST program; they must not touch the heap when fed a scratch buffer.
func TestWireAppendDecodeAllocationFree(t *testing.T) {
	scratch := make([]byte, 0, nodeRecordLen)
	nr := nodeRecord{id: 513, weight: 70000, degree: 12}
	er := edgeRecord{u: 3, v: 700}

	allocs := testing.AllocsPerRun(100, func() {
		scratch = appendStatus(scratch[:0], stateIn, 0xDEADBEEF)
		if _, _, err := decodeStatus(scratch); err != nil {
			t.Fatal(err)
		}
		scratch = appendNodeRecord(scratch[:0], nr)
		if _, _, _, err := decodeRecord(scratch); err != nil {
			t.Fatal(err)
		}
		scratch = appendEdgeRecord(scratch[:0], er)
		if _, _, _, err := decodeRecord(scratch); err != nil {
			t.Fatal(err)
		}
		scratch = appendBFS(scratch[:0], 7, 3)
		if _, _, ok := decodeBFS(scratch); !ok {
			t.Fatal("BFS message did not decode")
		}
	})
	if allocs != 0 {
		t.Fatalf("wire round-trips allocated %.1f times per run, want 0", allocs)
	}
}

// allocTestGraph builds the deterministic connected random graph shared by
// the allocation, determinism and reference tests: a Hamiltonian path plus
// every other pair with probability chords.
func allocTestGraph(tb testing.TB, n int, chords float64, seed int64) *graphs.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.AddNodeID(int64(rng.Intn(50) + 1))
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(i-1, i)
	}
	for u := 0; u < n; u++ {
		for v := u + 2; v < n; v++ {
			if rng.Float64() < chords {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// TestRunAllocationBudget pins the allocation count of a mid-size
// Network.Run: the round loop copies no payload and recycles its outboxes,
// so the only allocations left are the O(n) per-run setup (program Init
// state, per-node randomness, outbox and done tables) — nothing
// proportional to rounds × messages. The budget is deliberately generous headroom over the measured
// value (~1k) while still catching any per-message regression, which
// costs tens of thousands of allocations at this size.
func TestRunAllocationBudget(t *testing.T) {
	const n = 64
	g := allocTestGraph(t, n, 0.08, 1729)

	const budget = 3000
	allocs := testing.AllocsPerRun(5, func() {
		net, err := congest.NewNetwork(g, NewRankGreedyPrograms(n), congest.Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("Network.Run allocated %.0f times, budget %d", allocs, budget)
	}
}
