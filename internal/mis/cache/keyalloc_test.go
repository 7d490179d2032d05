//go:build !race

// The race detector makes sync.Pool drop a random share of the buffers put
// back, so under -race a pooled KeyOf allocates; this test runs without it.

package cache

import (
	"testing"

	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

// TestKeyOfAllocationFree: keying a solve without a clique cover
// allocates nothing, hits included, so a GossipExact run's n lookups of
// its learnt graph cost no garbage. The graph has the 90 nodes of the
// linear /v1/reduce instance.
func TestKeyOfAllocationFree(t *testing.T) {
	const n = 90
	g := graphs.New(n)
	for v := 0; v < n; v++ {
		g.AddNodeID(int64(v%7 + 1))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v += 1 + (u+v)%9 {
			g.MustAddEdge(u, v)
		}
	}
	want, _ := KeyOf(g, mis.Options{MaxSteps: 10})
	allocs := testing.AllocsPerRun(100, func() {
		if key, ok := KeyOf(g, mis.Options{MaxSteps: 10}); !ok || key != want {
			t.Fatalf("KeyOf = %x, %v; want %x, true", key, ok, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("KeyOf allocated %.1f times per call, want 0", allocs)
	}
}
