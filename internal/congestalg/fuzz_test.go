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
//     re-encodes to the same bytes.
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

		_, _, _, recordErr := decodeRecord(data)
		for _, p := range []congest.NodeProgram{
			NewGossipExactPrograms(n)[self],
			NewCollectSolvePrograms(n)[self],
			NewLubyPrograms(n)[self],
			NewRankGreedyPrograms(n)[self],
			NewLeaderBFSPrograms(n)[self],
		} {
			pp := p.(congest.PushProgram)
			pp.Init(info())
			pp.Receive(round, m)
			var wantErr error
			switch p.(type) {
			case *GossipExact:
				wantErr = recordErr
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
		if leader, dist, err := decodeBFS(data); err == nil {
			if again := appendBFS(nil, leader, dist); !bytes.Equal(again, data) {
				t.Fatalf("BFS message % x re-encodes to % x", data, again)
			}
		}
	})
}
