package congestalg

import (
	"encoding/binary"
	"fmt"
	"math"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
)

// BFSResult is the per-node output of the LeaderBFS program.
type BFSResult struct {
	// Leader is the elected leader: the minimum node ID in the node's
	// connected component.
	Leader graphs.NodeID
	// Dist is the hop distance to the leader.
	Dist int
	// Parent is the BFS-tree parent (-1 at the leader itself).
	Parent graphs.NodeID
}

// LeaderBFS elects the minimum-ID node as leader and builds a BFS tree
// rooted at it, the standard preamble of centralised CONGEST algorithms
// (including the collect-and-solve universal algorithm). Each round every
// active node broadcasts its best known (leader, dist) pair; improvements
// adopt the sender as parent. The program self-terminates after n rounds,
// by which time the flood has stabilised on any connected graph.
//
// The leader travels in a 16-bit field of the flood message. A node whose
// ID does not fit it declares itself done at Init and sends nothing, so
// the run still terminates, and outputs an error naming the field.
//
// Output: BFSResult, or the error of a node whose ID does not fit the
// leader field.
type LeaderBFS struct {
	info congest.NodeInfo
	bfsState
	done    bool
	err     error
	sendBuf []byte
}

var _ congest.PushProgram = (*LeaderBFS)(nil)

// NewLeaderBFSPrograms returns one LeaderBFS program per node.
func NewLeaderBFSPrograms(n int) []congest.NodeProgram {
	programs := make([]congest.NodeProgram, n)
	for i := range programs {
		programs[i] = &LeaderBFS{}
	}
	return programs
}

// Init implements congest.NodeProgram.
func (b *LeaderBFS) Init(info congest.NodeInfo) {
	b.info = info
	b.start(info.ID)
	b.err = nil
	if info.ID > math.MaxUint16 {
		b.err = fmt.Errorf("congestalg: node ID %d does not fit the 16-bit BFS leader field", info.ID)
	}
	b.done = b.err != nil
	b.sendBuf = make([]byte, 0, bfsLen)
}

// Round implements congest.NodeProgram.
func (b *LeaderBFS) Round(round int, inbox []congest.Message) []congest.Message {
	for _, m := range inbox {
		b.Receive(round-1, m)
	}
	out, data := b.Send(round, nil)
	return congest.ExpandSend(b.info.ID, b.info.Neighbors, out, data)
}

// Receive implements congest.PushProgram: a better (leader, distance)
// offer is adopted with its sender as parent.
func (b *LeaderBFS) Receive(_ int, m congest.Message) { b.adopt(m.From, m.Data) }

// Send implements congest.PushProgram: the node broadcasts its best
// (leader, distance) pair.
func (b *LeaderBFS) Send(round int, out []congest.Message) ([]congest.Message, []byte) {
	if b.err != nil || round > b.info.N {
		b.done = true
		return out, nil
	}
	b.sendBuf = appendBFS(b.sendBuf[:0], b.leader, b.dist)
	return out, b.sendBuf
}

// Done implements congest.NodeProgram.
func (b *LeaderBFS) Done() bool { return b.done }

// Output implements congest.NodeProgram.
func (b *LeaderBFS) Output() any {
	if b.err != nil {
		return b.err
	}
	return BFSResult{Leader: b.leader, Dist: b.dist, Parent: b.parent}
}

// bfsState is one node's side of the min-ID leader flood, shared by
// LeaderBFS and CollectSolve's first phase: the best (leader, distance)
// offer the node knows and the neighbour it came from.
type bfsState struct {
	leader, dist, parent int
}

// start resets the flood at node id: it leads itself at distance 0 and
// has no parent.
func (s *bfsState) start(id int) { *s = bfsState{leader: id, parent: -1} }

// adopt takes the offer in data, with its sender from as parent, when it
// names a smaller leader or a shorter distance to the same one. Garbage is
// dropped: flooding is self-correcting.
//
// It takes the sender and the payload, not the congest.Message, so that
// it inlines into the Receive methods on the delivery path with nothing
// to copy. Inlined with a Message parameter, a helper can make the
// compiler spill the message, which arrives in registers, with 8-byte
// stores and copy it back with 16-byte loads that cannot be
// store-forwarded, a stall on every flood message (docs/performance.md,
// "Crossing counts, in-place BFS offers and word-wise walks").
func (s *bfsState) adopt(from int, data []byte) {
	leader, dist, ok := decodeBFS(data)
	if !ok {
		return
	}
	if leader < s.leader || (leader == s.leader && dist+1 < s.dist) {
		*s = bfsState{leader: leader, dist: dist + 1, parent: from}
	}
}

// bfsLen is the wire size of a BFS flood message.
const bfsLen = 5

// appendBFS packs (leader, dist) into 5 bytes appended to dst.
func appendBFS(dst []byte, leader, dist int) []byte {
	return append(dst, wireStatus+100, // distinct tag, private to this program
		byte(leader>>8), byte(leader), byte(dist>>8), byte(dist))
}

func encodeBFS(leader, dist int) []byte {
	return appendBFS(make([]byte, 0, bfsLen), leader, dist)
}

// decodeBFS unpacks a BFS flood message; ok is false for any payload
// appendBFS does not produce. It returns no error value, so that it
// inlines into adopt.
func decodeBFS(data []byte) (leader, dist int, ok bool) {
	if len(data) != bfsLen || data[0] != wireStatus+100 {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint16(data[1:])), int(binary.BigEndian.Uint16(data[3:])), true
}

// BFSResults extracts the typed outputs of a LeaderBFS run; a node that
// output an error fails the extraction with the first such error
// (OutputError).
func BFSResults(result congest.Result) ([]BFSResult, error) {
	if err := OutputError(result); err != nil {
		return nil, err
	}
	out := make([]BFSResult, len(result.Outputs))
	for u, o := range result.Outputs {
		r, ok := o.(BFSResult)
		if !ok {
			return nil, fmt.Errorf("congestalg: node %d produced %T, want BFSResult", u, o)
		}
		out[u] = r
	}
	return out, nil
}
