package congestalg

import (
	"encoding/binary"
	"fmt"
	"sort"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
	"congestlb/internal/mis/cache"
)

// CollectSolve is the textbook universal CONGEST algorithm behind the
// paper's "any problem can be solved in O(n²) rounds" remark, implemented
// as written in the textbooks rather than by gossip:
//
//  1. elect the min-ID leader and grow a BFS tree (n rounds);
//  2. announce parents so every node learns its children (1 round);
//  3. convergecast the whole graph up the tree, pipelined one record per
//     round per tree edge, with subtree-done markers for termination;
//  4. the root solves maximum-weight independent set locally and
//     downcasts the membership list.
//
// Compared with GossipExact it sends records only on tree edges, so its
// total traffic is Θ(n+m) records instead of Θ(m·(n+m)) — the round count
// stays Θ(n+m+D) = O(n²).
//
// On disconnected graphs each component elects its own leader and solves
// its own subgraph; the union of the per-component optima is the global
// optimum, so outputs remain exact.
//
// Output: bool — membership in the computed optimum independent set — or
// an error value if the root's solve failed, a tree-phase message was
// malformed, or the node's own record does not fit the wire format (see
// nodeRecord.fits).
type CollectSolve struct {
	info congest.NodeInfo

	// BFS phase state.
	bfsState

	// Tree structure, learned in the parent-announcement round.
	children  []graphs.NodeID
	childDone map[graphs.NodeID]bool

	// Upcast state. Queued payloads are arena-retained: Receive only
	// lends them.
	arena     recArena
	upQueue   [][]byte
	ownQueued bool
	sentDone  bool

	// Root collection.
	nodes map[int]nodeRecord
	edges map[edgeRecord]bool

	// Downcast state.
	downQueue [][]byte
	member    bool
	endSeen   bool
	failed    error
	done      bool

	// ownErr reports that the node's own record does not fit the wire
	// format; the node still takes part, so the run terminates, and
	// outputs the error.
	ownErr error

	// sendBuf is the scratch buffer for broadcast payloads (BFS floods
	// and the parent announcement), reused across rounds.
	sendBuf []byte

	// sess routes the root's exact solve (nil = a direct solve).
	sess *cache.Session
}

var _ congest.PushProgram = (*CollectSolve)(nil)

// NewCollectSolvePrograms returns one CollectSolve program per node. Only
// the root solves, once, so its solve runs directly.
func NewCollectSolvePrograms(n int) []congest.NodeProgram {
	return NewCollectSolveProgramsWith(nil, n)
}

// NewCollectSolveProgramsWith is NewCollectSolvePrograms with the root's
// exact solve routed through the given solve session (nil = a direct
// solve), so callers get exact attribution of the solver work their run
// triggers.
func NewCollectSolveProgramsWith(sess *cache.Session, n int) []congest.NodeProgram {
	programs := make([]congest.NodeProgram, n)
	for i := range programs {
		programs[i] = &CollectSolve{sess: sess}
	}
	return programs
}

// Wire tags private to this program (BFS reuses encodeBFS).
const (
	collectParent byte = 200 + iota
	collectDone
	collectMember
	collectEnd
)

// Static single-byte payloads; receivers never modify a payload, so
// sharing them across nodes and rounds is safe.
var (
	collectDoneMsg = []byte{collectDone}
	collectEndMsg  = []byte{collectEnd}
)

// Init implements congest.NodeProgram. It resets all run state so a
// Network can be Run repeatedly.
func (cs *CollectSolve) Init(info congest.NodeInfo) {
	cs.info = info
	cs.start(info.ID)
	cs.children = nil
	cs.childDone = make(map[graphs.NodeID]bool)
	cs.arena = recArena{}
	cs.upQueue = nil
	cs.ownQueued = false
	cs.sentDone = false
	cs.nodes = make(map[int]nodeRecord)
	cs.edges = make(map[edgeRecord]bool)
	cs.downQueue = nil
	cs.member = false
	cs.endSeen = false
	cs.failed = nil
	cs.done = false
	cs.ownErr = nodeRecord{id: info.ID, weight: info.Weight, degree: len(info.Neighbors)}.fits()
	cs.sendBuf = make([]byte, 0, nodeRecordLen)
}

// Round implements congest.NodeProgram.
func (cs *CollectSolve) Round(round int, inbox []congest.Message) []congest.Message {
	for _, m := range inbox {
		cs.Receive(round-1, m)
	}
	out, data := cs.Send(round, nil)
	return congest.ExpandSend(cs.info.ID, cs.info.Neighbors, out, data)
}

// Receive implements congest.PushProgram. The BFS flood runs in rounds
// 1..n; its round-n messages arrive with the BFS settled and are dropped,
// and the parent announcements of round n+1 start the tree phase.
func (cs *CollectSolve) Receive(round int, m congest.Message) {
	switch n := cs.info.N; {
	case round < n:
		cs.adopt(m.From, m.Data)
	case round > n:
		cs.consume(m)
	}
}

// Send implements congest.PushProgram: the BFS flood and the parent
// announcement are broadcasts, the tree phase sends unicasts.
func (cs *CollectSolve) Send(round int, out []congest.Message) ([]congest.Message, []byte) {
	n := cs.info.N
	switch {
	case round <= n:
		cs.sendBuf = appendBFS(cs.sendBuf[:0], cs.leader, cs.dist)
	case round == n+1:
		// BFS has stabilised; announce the parent to all neighbours.
		cs.sendBuf = appendParent(cs.sendBuf[:0], cs.parent)
	default:
		return cs.treeSend(out), nil
	}
	return out, cs.sendBuf
}

// treeSend drives the upcast and downcast phases.
func (cs *CollectSolve) treeSend(out []congest.Message) []congest.Message {
	if cs.failed != nil {
		cs.done = true
		return out
	}
	if !cs.ownQueued {
		cs.queueOwnRecords()
	}

	// Upcast: one item per round toward the parent.
	if cs.parent != -1 {
		switch {
		case len(cs.upQueue) > 0:
			out = append(out, congest.Message{From: cs.info.ID, To: cs.parent, Data: cs.upQueue[0]})
			cs.upQueue = cs.upQueue[1:]
		case !cs.sentDone && cs.allChildrenDone():
			out = append(out, congest.Message{From: cs.info.ID, To: cs.parent, Data: collectDoneMsg})
			cs.sentDone = true
		}
	} else if cs.downQueue == nil && cs.allChildrenDone() && len(cs.upQueue) == 0 {
		// Root with a complete picture: solve and start the downcast.
		cs.solveAtRoot()
	}

	// Downcast: broadcast one item per round to every child.
	if len(cs.downQueue) > 0 {
		item := cs.downQueue[0]
		cs.downQueue = cs.downQueue[1:]
		for _, child := range cs.children {
			out = append(out, congest.Message{From: cs.info.ID, To: child, Data: item})
		}
		if len(cs.downQueue) == 0 && cs.endSeen {
			cs.done = true
		}
	} else if cs.endSeen && cs.parent != -1 {
		cs.done = true
	}
	return out
}

// consume dispatches one tree-phase message by tag. Payloads that must
// survive past this call (relayed records and downcast items) are copied
// into the program arena. A malformed message fails the node.
func (cs *CollectSolve) consume(m congest.Message) {
	if err := checkTreeMessage(m.Data); err != nil {
		cs.fail(fmt.Errorf("congestalg: collect at %d: %w", cs.info.ID, err))
		return
	}
	switch m.Data[0] {
	case collectParent:
		if decodeParent(m.Data) == cs.info.ID {
			cs.children = append(cs.children, m.From)
		}
	case collectDone:
		cs.childDone[m.From] = true
	case wireNode, wireEdge:
		if cs.parent == -1 {
			cs.storeRecord(m.Data)
		} else {
			cs.upQueue = append(cs.upQueue, cs.arena.retain(m.Data))
		}
	case collectMember:
		id := int(binary.BigEndian.Uint16(m.Data[1:]))
		if id == cs.info.ID {
			cs.member = true
		}
		if len(cs.children) > 0 {
			cs.downQueue = append(cs.downQueue, cs.arena.retain(m.Data))
		}
	case collectEnd:
		cs.endSeen = true
		if len(cs.children) > 0 {
			cs.downQueue = append(cs.downQueue, cs.arena.retain(m.Data))
		}
	}
}

// checkTreeMessage reports a tree-phase message that is not one of the
// tags above at its wire length; node and edge records are decoded, so a
// malformed one fails the node that receives it, not the root.
func checkTreeMessage(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("congestalg: empty record")
	}
	switch data[0] {
	case wireNode, wireEdge:
		_, _, _, err := decodeRecord(data)
		return err
	case collectParent, collectMember:
		if len(data) == 3 {
			return nil
		}
	case collectDone, collectEnd:
		if len(data) == 1 {
			return nil
		}
	default:
		return fmt.Errorf("congestalg: unknown record type %d", data[0])
	}
	return fmt.Errorf("congestalg: malformed message % x", data)
}

// fail records the node's first error, which becomes its output.
func (cs *CollectSolve) fail(err error) {
	if cs.failed == nil {
		cs.failed = err
	}
}

// queueOwnRecords seeds the upcast (or root store) with this node's own
// record and its owned edges (those toward higher IDs).
func (cs *CollectSolve) queueOwnRecords() {
	cs.ownQueued = true
	own := [][]byte{encodeNodeRecord(nodeRecord{
		id:     cs.info.ID,
		weight: cs.info.Weight,
		degree: len(cs.info.Neighbors),
	})}
	for _, v := range cs.info.Neighbors {
		if cs.info.ID < v {
			own = append(own, encodeEdgeRecord(edgeRecord{u: cs.info.ID, v: v}))
		}
	}
	if cs.parent == -1 {
		for _, item := range own {
			cs.storeRecord(item)
		}
		return
	}
	cs.upQueue = append(cs.upQueue, own...)
}

func (cs *CollectSolve) storeRecord(data []byte) {
	nr, er, kind, err := decodeRecord(data)
	if err != nil {
		cs.fail(err)
		return
	}
	switch kind {
	case wireNode:
		cs.nodes[nr.id] = nr
	case wireEdge:
		cs.edges[er] = true
	}
}

func (cs *CollectSolve) allChildrenDone() bool {
	for _, c := range cs.children {
		if !cs.childDone[c] {
			return false
		}
	}
	return true
}

// solveAtRoot rebuilds the component's subgraph (label-free, laid out by
// New for its node count), solves it exactly, and fills the downcast
// queue with the membership list.
func (cs *CollectSolve) solveAtRoot() {
	ids := make([]int, 0, len(cs.nodes))
	for id := range cs.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	local := make(map[int]int, len(ids))
	sub := graphs.New(len(ids))
	for i, id := range ids {
		local[id] = i
		sub.AddNodeID(cs.nodes[id].weight)
	}
	for e := range cs.edges {
		lu, okU := local[e.u]
		lv, okV := local[e.v]
		if !okU || !okV {
			cs.failed = fmt.Errorf("congestalg: collect at %d: edge {%d,%d} with unknown endpoint",
				cs.info.ID, e.u, e.v)
			return
		}
		if err := sub.AddEdge(lu, lv); err != nil {
			cs.failed = fmt.Errorf("congestalg: collect at %d: %w", cs.info.ID, err)
			return
		}
	}
	sol, err := cs.sess.Exact(sub, mis.Options{})
	if err != nil {
		cs.failed = fmt.Errorf("congestalg: collect at %d: solve: %w", cs.info.ID, err)
		return
	}
	cs.downQueue = make([][]byte, 0, len(sol.Set)+1)
	for _, lu := range sol.Set {
		id := ids[lu]
		if id == cs.info.ID {
			cs.member = true
		}
		item := make([]byte, 3)
		item[0] = collectMember
		binary.BigEndian.PutUint16(item[1:], uint16(id))
		cs.downQueue = append(cs.downQueue, item)
	}
	cs.downQueue = append(cs.downQueue, collectEndMsg)
	cs.endSeen = true
}

// Done implements congest.NodeProgram.
func (cs *CollectSolve) Done() bool { return cs.done }

// Output implements congest.NodeProgram.
func (cs *CollectSolve) Output() any {
	if cs.failed != nil {
		return cs.failed
	}
	if cs.ownErr != nil {
		return cs.ownErr
	}
	return cs.member
}

// appendParent packs a parent announcement into 3 bytes appended to dst.
func appendParent(dst []byte, parent int) []byte {
	p := uint16(parent + 1) // -1 maps to 0
	return append(dst, collectParent, byte(p>>8), byte(p))
}

func decodeParent(data []byte) int {
	return int(binary.BigEndian.Uint16(data[1:])) - 1
}
