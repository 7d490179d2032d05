package congestalg

import (
	"encoding/binary"
	"fmt"

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
// Output: BFSResult.
type LeaderBFS struct {
	info    congest.NodeInfo
	leader  int
	dist    int
	parent  int
	done    bool
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
	b.leader = info.ID
	b.dist = 0
	b.parent = -1
	b.done = false
	b.sendBuf = make([]byte, 0, bfsLen)
}

// Round implements congest.NodeProgram.
func (b *LeaderBFS) Round(round int, inbox []congest.Message) []congest.Message {
	for _, m := range inbox {
		b.Receive(round-1, m)
	}
	return b.Send(round, nil)
}

// Receive implements congest.PushProgram: a better (leader, distance)
// offer is adopted with its sender as parent.
func (b *LeaderBFS) Receive(_ int, m congest.Message) {
	leader, dist, err := decodeBFS(m.Data)
	if err != nil {
		return // tolerate garbage; flooding is self-correcting
	}
	if leader < b.leader || (leader == b.leader && dist+1 < b.dist) {
		b.leader = leader
		b.dist = dist + 1
		b.parent = m.From
	}
}

// Send implements congest.PushProgram.
func (b *LeaderBFS) Send(round int, out []congest.Message) []congest.Message {
	if round > b.info.N {
		b.done = true
		return out
	}
	b.sendBuf = appendBFS(b.sendBuf[:0], b.leader, b.dist)
	for _, v := range b.info.Neighbors {
		out = append(out, congest.Message{From: b.info.ID, To: v, Data: b.sendBuf})
	}
	return out
}

// Done implements congest.NodeProgram.
func (b *LeaderBFS) Done() bool { return b.done }

// Output implements congest.NodeProgram.
func (b *LeaderBFS) Output() any {
	return BFSResult{Leader: b.leader, Dist: b.dist, Parent: b.parent}
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

func decodeBFS(data []byte) (leader, dist int, err error) {
	if len(data) != 5 || data[0] != wireStatus+100 {
		return 0, 0, fmt.Errorf("congestalg: malformed BFS message % x", data)
	}
	return int(binary.BigEndian.Uint16(data[1:])), int(binary.BigEndian.Uint16(data[3:])), nil
}

// BFSResults extracts the typed outputs of a LeaderBFS run.
func BFSResults(result congest.Result) ([]BFSResult, error) {
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
