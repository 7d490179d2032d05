package congestalg

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"congestlb/internal/congest"
)

// FuzzReceive hands arbitrary payload bytes to every program's Receive, at
// an arbitrary round, on node 2 of a 5-node network after Init. Decoding
// runs inside the round loop's delivery, so:
//
//   - no payload may panic Receive, nor the Send and Output that follow;
//   - a payload GossipExact cannot decode as a record, or CollectSolve
//     cannot read as a tree-phase message, fails the node: its output is
//     an error carrying the decoder's text;
//   - a payload decodeRecord, decodeStatus or decodeBFS accepts
//     re-encodes to the same bytes;
//   - an edge record GossipExact decodes in line follows decodeRecord's
//     rules: one with an endpoint ≥ n or equal endpoints fails the node,
//     a copy of an edge the node holds, in either orientation, is a
//     duplicate (no error, nothing logged), and any other edge is logged
//     once, as the bytes that arrived.
//
// Seeds live in testdata/fuzz/FuzzReceive; keep each to a few hundred
// bytes.
func FuzzReceive(f *testing.F) {
	const n, self = 5, 2
	info := func() congest.NodeInfo {
		return congest.NodeInfo{ID: self, Weight: 3, Neighbors: []int{1, 3}, N: n, Rand: rand.New(rand.NewSource(1))}
	}
	f.Fuzz(func(t *testing.T, data []byte, r uint8) {
		round := int(r) % (2*n + 3)
		m := congest.Message{From: 1, To: self, Data: data}

		_, er, kind, recordErr := decodeRecord(data)
		for _, p := range []congest.NodeProgram{
			NewGossipExactPrograms(n)[self],
			NewCollectSolvePrograms(n)[self],
			NewLubyPrograms(n)[self],
			NewRankGreedyPrograms(n)[self],
			NewLeaderBFSPrograms(n)[self],
		} {
			pp := p.(congest.PushProgram)
			pp.Init(info())
			var logged int
			if g, ok := p.(*GossipExact); ok {
				logged = len(g.log)
			}
			pp.Receive(round, m)
			var wantErr error
			switch p := p.(type) {
			case *GossipExact:
				wantErr = recordErr
				if recordErr == nil && kind == wireEdge {
					checkGossipEdge(t, p, er, logged, data)
				}
			case *CollectSolve:
				if round > n {
					wantErr = checkTreeMessage(data)
				}
			}
			if wantErr != nil {
				got, ok := pp.Output().(error)
				if !ok || !strings.Contains(got.Error(), wantErr.Error()) {
					t.Fatalf("%T: payload % x in round %d: output %v, want an error carrying %q", p, data, round, pp.Output(), wantErr)
				}
			}
			pp.Send(round+1, nil)
			pp.Output()
		}

		if nr, er, kind, err := decodeRecord(data); err == nil {
			var again []byte
			if kind == wireNode {
				again = appendNodeRecord(nil, nr)
			} else {
				again = appendEdgeRecord(nil, er)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("record % x re-encodes to % x", data, again)
			}
		}
		if state, value, err := decodeStatus(data); err == nil {
			if again := appendStatus(nil, state, value); !bytes.Equal(again, data) {
				t.Fatalf("status % x re-encodes to % x", data, again)
			}
		}
		if leader, dist, ok := decodeBFS(data); ok {
			if again := appendBFS(nil, leader, dist); !bytes.Equal(again, data) {
				t.Fatalf("BFS message % x re-encodes to % x", data, again)
			}
		}
	})
}

// checkGossipEdge checks what FuzzReceive's node 2 (neighbours 1 and 3, of
// 5 nodes) did with the edge record e, which decodeRecord accepted, given
// its log length before Receive. The only edge the node holds after Init
// is its own {2, 3}.
func checkGossipEdge(t *testing.T, g *GossipExact, e edgeRecord, logged int, data []byte) {
	t.Helper()
	u, v := min(e.u, e.v), max(e.u, e.v)
	_, failed := g.Output().(error)
	switch {
	case v >= g.info.N || u == v:
		if !failed {
			t.Fatalf("edge record % x: output %v, want an error", data, g.Output())
		}
	case u == 2 && v == 3:
		if failed || len(g.log) != logged {
			t.Fatalf("held edge % x: output %v, log %d → %d entries; want no error and no entry", data, g.Output(), logged, len(g.log))
		}
	default:
		if failed || len(g.log) != logged+1 || !bytes.Equal(g.payload(g.log[logged]), data) {
			t.Fatalf("new edge % x: output %v, log %d → %d entries; want no error and one entry of the bytes that arrived", data, g.Output(), logged, len(g.log))
		}
	}
}
