package congestalg

import (
	"fmt"
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
// Rather than buffering records and rebuilding the graph when gossip
// completes, the program reconstructs the network graph incrementally as
// records arrive, in a label-free graphs.Graph laid out for all n nodes
// (New + AddNodeID): arrival-time deduplication doubles as the rebuild,
// and the local solve runs directly on the reconstructed graph with no
// label formatting at all.
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

	// rebuilt is the incrementally reconstructed network graph; known
	// marks node IDs whose records arrived, degSum their degree total.
	rebuilt    *graphs.Graph
	known      []bool
	knownCount int
	degSum     int

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
	g.info = info
	g.rebuilt = graphs.New(info.N)
	for i := 0; i < info.N; i++ {
		g.rebuilt.AddNodeID(0)
	}
	g.known = make([]bool, info.N)
	g.knownCount = 0
	g.degSum = 0
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
	g.storeNode(self)
	g.keep(encodeNodeRecord(self), -1)
	for _, v := range info.Neighbors {
		if info.ID < v {
			e := edgeRecord{u: info.ID, v: v}
			g.rebuilt.MustAddEdge(e.u, e.v)
			g.keep(encodeEdgeRecord(e), -1)
		}
	}
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

// storeNode records a newly learned node: its weight lands in the rebuilt
// graph, its degree in the termination accounting.
func (g *GossipExact) storeNode(r nodeRecord) {
	g.known[r.id] = true
	g.knownCount++
	g.degSum += r.degree
	g.rebuilt.SetWeight(r.id, r.weight)
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
// lands in the rebuilt graph and is logged for forwarding.
func (g *GossipExact) Receive(_ int, m congest.Message) {
	nr, er, kind, err := decodeRecord(m.Data)
	if err != nil {
		g.fail(fmt.Errorf("gossip at node %d: %w", g.info.ID, err))
		return
	}
	switch kind {
	case wireNode:
		if nr.id >= g.info.N {
			g.fail(fmt.Errorf("gossip at node %d: node record %d out of range", g.info.ID, nr.id))
			return
		}
		if !g.known[nr.id] {
			g.storeNode(nr)
			g.keep(m.Data, neighborIndex(g.info.Neighbors, m.From))
		}
	case wireEdge:
		if !g.rebuilt.HasEdge(er.u, er.v) {
			if err := g.rebuilt.AddEdge(er.u, er.v); err != nil {
				g.fail(fmt.Errorf("gossip at node %d: rebuild edge: %w", g.info.ID, err))
				return
			}
			g.keep(m.Data, neighborIndex(g.info.Neighbors, m.From))
		}
	}
}

// Send implements congest.PushProgram: every neighbour gets the next
// logged record that did not come from it, and a node that has learnt the
// whole graph solves it. Neighbours get different records, so nothing is
// broadcast.
func (g *GossipExact) Send(_ int, out []congest.Message) ([]congest.Message, []byte) {
	for i, v := range g.info.Neighbors {
		c := g.next(i)
		if c < len(g.log) {
			out = append(out, congest.Message{From: g.info.ID, To: v, Data: g.payload(g.log[c])})
			c++
		}
		g.cursor[i] = c
	}
	if !g.solved && g.complete() {
		g.solve()
	}
	return out, nil
}

// complete reports whether the full graph is known locally.
func (g *GossipExact) complete() bool {
	return g.knownCount == g.info.N && g.rebuilt.M() == g.degSum/2
}

// solve runs the exact MaxIS solver on the reconstructed graph. Every node
// performs the identical deterministic computation, so all outputs agree —
// which is exactly why the solve goes through the content-addressed cache:
// all n nodes reconstruct the same graph, so one node pays for the
// branch-and-bound and the other n-1 hit the cached solution.
func (g *GossipExact) solve() {
	g.solved = true
	if g.errVal != nil {
		return
	}
	sol, err := g.sess.Exact(g.rebuilt, mis.Options{})
	if err != nil {
		g.fail(fmt.Errorf("gossip at node %d: local solve: %w", g.info.ID, err))
		return
	}
	set := append([]graphs.NodeID(nil), sol.Set...)
	sort.Ints(set)
	g.result = set
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
