package congestalg

import (
	"fmt"
	"slices"
	"sort"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
	"congestlb/internal/mis/cache"
)

// GossipExact learns the entire graph at every node by pipelined gossip and
// then solves maximum-weight independent set locally with the exact solver.
// It realises the universal upper bound the paper cites ("any problem can
// be solved in O(n²) rounds in the CONGEST model"): each edge carries one
// record per round, there are n node records and m edge records, so the
// algorithm finishes in O(n + m + D) = O(n²) rounds.
//
// Termination detection is information-theoretic rather than coordinated:
// node records carry degrees, so once a node holds all n node records it
// knows m = Σdeg/2 and can tell when its edge-record collection is
// complete.
//
// A node's knowledge is one bitset with a bit per record it can learn
// (node records first, then one bit per vertex pair), its node weights and
// two counts. Most deliveries are duplicates, and each costs one bit test.
// Only when the node holds every record does it build the graph, once,
// from its log, solve it and drop it.
//
// Forwarding runs off one append-only log per node: every record the node
// keeps — its own at Init, then each first arrival — is logged once, and
// each round neighbour i is sent the next logged record that did not come
// from i. A record costs one 8-byte log entry however many neighbours it
// is forwarded to.
//
// Output: []graphs.NodeID — the (identical) optimum independent set
// computed at every node, or an error value if the local solve failed, a
// received record was malformed, or the node's own record does not fit
// the wire format (see nodeRecord.fits).
type GossipExact struct {
	info congest.NodeInfo

	// have holds one bit per record: bit id for node id's record, bit
	// n + u·n + v for the edge {u, v}, u < v. weights holds the weights
	// of the nodes learnt so far; nodes and edges count the set bits of
	// each kind, degSum is the learnt nodes' degree total.
	have    []uint64
	weights []int64
	nodes   int
	edges   int
	degSum  int

	// buf keeps the record payloads, which are only lent to Receive
	// (append-only; records are addressed by offset, so growth never
	// invalidates a logged entry, and the records sent out of it stay
	// unchanged while they are delivered). log holds one pointer-free
	// (offset<<24 | source<<8 | length) entry per kept record, source
	// being the index of the neighbour it came from (0xFFFF for the
	// node's own records); cursor[i] is the first entry neither sent to
	// nor skipped for neighbour i.
	buf    []byte
	log    []uint64
	cursor []int

	solved bool
	result []graphs.NodeID
	errVal error

	// sess routes the local solve (nil = a direct solve).
	sess *cache.Session
}

var _ congest.PushProgram = (*GossipExact)(nil)

// NewGossipExactPrograms returns one GossipExact program per node. The n
// programs share one session over a fresh solve cache, so the run
// branch-and-bounds the graph every node learns once, not n times, and
// shares nothing with any other run.
func NewGossipExactPrograms(n int) []congest.NodeProgram {
	return NewGossipExactProgramsWith(cache.NewSession(cache.New(0)), n)
}

// NewGossipExactProgramsWith is NewGossipExactPrograms with every node's
// local solve routed through the given solve session (nil = every node
// solves directly), so callers get exact attribution of the solver work
// their run triggers.
func NewGossipExactProgramsWith(sess *cache.Session, n int) []congest.NodeProgram {
	programs := make([]congest.NodeProgram, n)
	for i := range programs {
		programs[i] = &GossipExact{sess: sess}
	}
	return programs
}

// Init implements congest.NodeProgram.
func (g *GossipExact) Init(info congest.NodeInfo) {
	n := info.N
	g.info = info
	g.have = make([]uint64, (n+n*n+63)/64)
	g.weights = make([]int64, n)
	g.nodes, g.edges, g.degSum = 0, 0, 0
	g.buf = nil
	g.log = nil
	g.cursor = make([]int, len(info.Neighbors))
	g.solved = false
	g.result = nil
	g.errVal = nil

	self := nodeRecord{id: info.ID, weight: info.Weight, degree: len(info.Neighbors)}
	if err := self.fits(); err != nil {
		// The node still gossips, so the run terminates; its output is
		// the error.
		g.errVal = fmt.Errorf("gossip at node %d: %w", info.ID, err)
	}
	g.learnNode(self)
	g.keep(encodeNodeRecord(self), -1)
	for _, v := range info.Neighbors {
		if info.ID < v {
			g.learnEdge(info.ID, v)
			g.keep(encodeEdgeRecord(edgeRecord{u: info.ID, v: v}), -1)
		}
	}
}

// learn sets bit b of the record set, reporting whether it was clear.
func (g *GossipExact) learn(b int) bool {
	w, mask := uint(b)/64, uint64(1)<<(uint(b)%64)
	if g.have[w]&mask != 0 {
		return false
	}
	g.have[w] |= mask
	return true
}

// learnNode records a node record unless the node holds it already: its
// weight, and its degree in the termination accounting. It reports
// whether the record was new.
func (g *GossipExact) learnNode(r nodeRecord) bool {
	if !g.learn(r.id) {
		return false
	}
	g.nodes++
	g.degSum += r.degree
	g.weights[r.id] = r.weight
	return true
}

// learnEdge records the edge {u, v}, u < v < n, unless the node holds it
// already, reporting whether it was new.
func (g *GossipExact) learnEdge(u, v int) bool {
	if !g.learn(g.info.N + u*g.info.N + v) {
		return false
	}
	g.edges++
	return true
}

// keep appends a record to the store and its entry to the forwarding log.
// from is the index of the neighbour it came from, -1 for the node's own
// records; -1 packs to 0xFFFF, which no neighbour index reaches because
// node IDs are 16 bits on the wire.
func (g *GossipExact) keep(data []byte, from int) {
	off := len(g.buf)
	g.buf = append(g.buf, data...)
	g.log = append(g.log, uint64(off)<<24|uint64(uint16(from))<<8|uint64(len(data)))
}

// next returns the log position of the next record to send neighbour i,
// skipping those that came from i; len(g.log) when there is none.
func (g *GossipExact) next(i int) int {
	c := g.cursor[i]
	for c < len(g.log) && int(g.log[c]>>8&0xFFFF) == i {
		c++
	}
	return c
}

// payload resolves a log entry back to its record bytes.
func (g *GossipExact) payload(entry uint64) []byte {
	off, length := entry>>24, entry&0xFF
	return g.buf[off : off+length : off+length]
}

// Round implements congest.NodeProgram.
func (g *GossipExact) Round(round int, inbox []congest.Message) []congest.Message {
	for _, m := range inbox {
		g.Receive(round-1, m)
	}
	out, _ := g.Send(round, nil)
	return out
}

// Receive implements congest.PushProgram: a record that is new to the node
// sets its bit and is logged for forwarding. An edge record is decoded in
// line and costs one bit test; {u, v} and {v, u} are one record, and a new
// one is forwarded as the bytes that arrived. Node records and malformed
// payloads go through decodeRecord.
func (g *GossipExact) Receive(_ int, m congest.Message) {
	e, ok := decodeEdgeRecord(m.Data)
	if !ok {
		g.receiveOther(m)
		return
	}
	u, v, n := e.u, e.v, g.info.N
	if u > v {
		u, v = v, u
	}
	if v >= n || u == v {
		g.fail(fmt.Errorf("gossip at node %d: edge record {%d, %d} is no edge on nodes [0,%d)", g.info.ID, e.u, e.v, n))
		return
	}
	if g.learnEdge(u, v) {
		g.keep(m.Data, neighborIndex(g.info.Neighbors, m.From))
	}
}

// receiveOther is Receive for every payload that is not an edge record:
// a node record, or a malformed payload that fails the node.
func (g *GossipExact) receiveOther(m congest.Message) {
	r, _, _, err := decodeRecord(m.Data)
	if err != nil {
		g.fail(fmt.Errorf("gossip at node %d: %w", g.info.ID, err))
		return
	}
	// decodeRecord accepted no edge record: Receive took those.
	if r.id >= g.info.N {
		g.fail(fmt.Errorf("gossip at node %d: node record %d out of range", g.info.ID, r.id))
		return
	}
	if g.learnNode(r) {
		g.keep(m.Data, neighborIndex(g.info.Neighbors, m.From))
	}
}

// Send implements congest.PushProgram: every neighbour gets the next
// logged record that did not come from it, and a node that has learnt the
// whole graph solves it. Neighbours get different records, so nothing is
// broadcast. out grows once, and each message is written in place.
func (g *GossipExact) Send(_ int, out []congest.Message) ([]congest.Message, []byte) {
	k := len(out)
	out = slices.Grow(out, len(g.info.Neighbors))[:k+len(g.info.Neighbors)]
	for i, v := range g.info.Neighbors {
		c := g.next(i)
		if c < len(g.log) {
			m := &out[k]
			m.From, m.To, m.Data = g.info.ID, v, g.payload(g.log[c])
			k++
			c++
		}
		g.cursor[i] = c
	}
	out = out[:k]
	if !g.solved && g.complete() {
		g.solve()
	}
	return out, nil
}

// complete reports whether the full graph is known locally.
func (g *GossipExact) complete() bool {
	return g.nodes == g.info.N && g.edges == g.degSum/2
}

// solve builds the learnt graph and runs the exact MaxIS solver on it.
// Every node performs the identical deterministic computation, so all
// outputs agree — which is exactly why the solve goes through the
// content-addressed cache: all n nodes learn the same graph, so one node
// pays for the branch-and-bound and the other n-1 hit the cached
// solution.
func (g *GossipExact) solve() {
	g.solved = true
	if g.errVal != nil {
		return
	}
	learnt, err := g.learnt()
	if err != nil {
		g.fail(fmt.Errorf("gossip at node %d: learnt graph: %w", g.info.ID, err))
		return
	}
	sol, err := g.sess.Exact(learnt, mis.Options{})
	if err != nil {
		g.fail(fmt.Errorf("gossip at node %d: local solve: %w", g.info.ID, err))
		return
	}
	set := append([]graphs.NodeID(nil), sol.Set...)
	sort.Ints(set)
	g.result = set
}

// learnt builds the graph the node holds: its n nodes with their weights
// and one edge per edge record in the log. Receive admits only edges of
// an n-node graph, so AddEdge can fail only on one of the node's own
// records, to a neighbour whose ID the 16-bit wire field truncated.
func (g *GossipExact) learnt() (*graphs.Graph, error) {
	learnt := graphs.New(g.info.N)
	for _, w := range g.weights {
		learnt.AddNodeID(w)
	}
	for _, entry := range g.log {
		if e, ok := decodeEdgeRecord(g.payload(entry)); ok {
			if err := learnt.AddEdge(e.u, e.v); err != nil {
				return nil, err
			}
		}
	}
	return learnt, nil
}

// fail ends the node's part in the solve; the first error is its output.
func (g *GossipExact) fail(err error) {
	g.solved = true
	if g.errVal == nil {
		g.errVal = err
	}
}

// Done implements congest.NodeProgram: finished once solved and with
// nothing left to send any neighbour.
func (g *GossipExact) Done() bool {
	if !g.solved {
		return false
	}
	for i := range g.cursor {
		if g.next(i) < len(g.log) {
			return false
		}
	}
	return true
}

// Output implements congest.NodeProgram.
func (g *GossipExact) Output() any {
	if g.errVal != nil {
		return g.errVal
	}
	return g.result
}

// ExactSetFromOutputs extracts the common solution from a GossipExact run,
// verifying that every node agrees. A node that output an error fails the
// extraction with the first such error (OutputError).
func ExactSetFromOutputs(result congest.Result) ([]graphs.NodeID, error) {
	if err := OutputError(result); err != nil {
		return nil, err
	}
	var ref []graphs.NodeID
	for u, out := range result.Outputs {
		val, ok := out.([]graphs.NodeID)
		if !ok {
			return nil, fmt.Errorf("congestalg: node %d produced unexpected output %T", u, out)
		}
		if ref == nil {
			ref = val
			continue
		}
		if len(val) != len(ref) {
			return nil, fmt.Errorf("congestalg: node %d disagrees on solution size", u)
		}
		for i := range val {
			if val[i] != ref[i] {
				return nil, fmt.Errorf("congestalg: node %d disagrees on solution", u)
			}
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("congestalg: no outputs")
	}
	return ref, nil
}
