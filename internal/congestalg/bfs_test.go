package congestalg

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"congestlb/internal/congest"
)

func TestLeaderBFSOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(50)
		g := randomGraph(n, 0.1, 3, rng)
		result := runPrograms(t, g, NewLeaderBFSPrograms(n), congest.Config{})
		results, err := BFSResults(result)
		if err != nil {
			t.Fatal(err)
		}
		truth := g.BFS(0) // node 0 is always the minimum ID
		for u, r := range results {
			if r.Leader != 0 {
				t.Fatalf("trial %d: node %d elected leader %d", trial, u, r.Leader)
			}
			if r.Dist != truth[u] {
				t.Fatalf("trial %d: node %d dist %d, BFS says %d", trial, u, r.Dist, truth[u])
			}
			if u == 0 {
				if r.Parent != -1 || r.Dist != 0 {
					t.Fatalf("leader has parent %d dist %d", r.Parent, r.Dist)
				}
				continue
			}
			// Parent must be a neighbour one hop closer to the leader.
			if !g.HasEdge(u, r.Parent) {
				t.Fatalf("trial %d: node %d parent %d not a neighbour", trial, u, r.Parent)
			}
			if truth[r.Parent] != r.Dist-1 {
				t.Fatalf("trial %d: node %d parent %d at dist %d, want %d",
					trial, u, r.Parent, truth[r.Parent], r.Dist-1)
			}
		}
	}
}

func TestLeaderBFSTreeIsSpanning(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := randomGraph(40, 0.1, 2, rng)
	result := runPrograms(t, g, NewLeaderBFSPrograms(40), congest.Config{})
	results, err := BFSResults(result)
	if err != nil {
		t.Fatal(err)
	}
	// Following parent pointers from any node must reach the leader
	// within n hops.
	for u := range results {
		cur, hops := u, 0
		for results[cur].Parent != -1 {
			cur = results[cur].Parent
			hops++
			if hops > 40 {
				t.Fatalf("parent chain from %d does not terminate", u)
			}
		}
		if cur != 0 {
			t.Fatalf("parent chain from %d ends at %d, not the leader", u, cur)
		}
	}
}

func TestBFSWireRoundTrip(t *testing.T) {
	data := encodeBFS(513, 77)
	leader, dist, ok := decodeBFS(data)
	if !ok || leader != 513 || dist != 77 {
		t.Fatalf("round trip: %d %d %v", leader, dist, ok)
	}
	if _, _, ok := decodeBFS([]byte{1, 2}); ok {
		t.Fatal("malformed BFS message accepted")
	}
}

func TestBFSResultsRejectsWrongOutputs(t *testing.T) {
	result := congest.Result{Outputs: []any{BFSResult{}, "nope"}}
	if _, err := BFSResults(result); err == nil {
		t.Fatal("wrong output type accepted")
	}
}

// TestLeaderBFSWideIDFails: the flood message carries the leader in 16
// bits, so a node whose ID does not fit them is done at Init, broadcasts
// nothing and outputs an error naming the field, and BFSResults returns
// that error rather than the other nodes' results. A full run at
// N > 2^16 is 2^16 rounds over 2^16 nodes, so the node is driven by hand.
func TestLeaderBFSWideIDFails(t *testing.T) {
	const n = 1<<16 + 2
	info := func(id int) congest.NodeInfo {
		return congest.NodeInfo{ID: id, Weight: 1, Neighbors: []int{1}, N: n, Rand: rand.New(rand.NewSource(1))}
	}
	wide := &LeaderBFS{}
	wide.Init(info(1 << 16))
	if !wide.Done() {
		t.Fatal("node 65536 is not done after Init")
	}
	if out, data := wide.Send(1, nil); len(out) != 0 || data != nil {
		t.Fatalf("node 65536 sent %v and broadcast %v", out, data)
	}
	err, ok := wide.Output().(error)
	if !ok || !strings.Contains(err.Error(), "node ID 65536 does not fit the 16-bit BFS leader field") {
		t.Fatalf("node 65536 output %v, want the 16-bit field error", wide.Output())
	}

	widest := &LeaderBFS{}
	widest.Init(info(1<<16 - 1))
	if _, data := widest.Send(1, nil); widest.Done() || data == nil {
		t.Fatalf("node 65535 done %v, broadcast %v; its ID fits", widest.Done(), data)
	}
	if _, ok := widest.Output().(BFSResult); !ok {
		t.Fatalf("node 65535 output %v, want a BFSResult", widest.Output())
	}

	result := congest.Result{Outputs: []any{BFSResult{Parent: -1}, BFSResult{Dist: 1}, err}}
	if _, got := BFSResults(result); !errors.Is(got, err) {
		t.Fatalf("BFSResults error %v, want the node's %v", got, err)
	}
}
