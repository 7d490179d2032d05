// Package congest simulates the CONGEST model of distributed computing:
// a synchronous network of n nodes with unique O(log n)-bit identifiers,
// where in every round each node may send a (possibly different) B-bit
// message to each of its neighbours, with B = O(log n).
//
// The simulator enforces the bandwidth bound bit-exactly, accounts every
// message, and, given a player partition (Config.Cut), tallies the bits
// and messages crossing it: the blackboard cost that the simulation
// argument of Theorem 5 in Efron, Grossman and Khoury (PODC 2020) charges
// the induced t-party protocol. internal/core runs its reductions that way.
//
// Node behaviour is written as a NodeProgram state machine. Every run is
// one Network.RunCtx through one round loop (see Network.step), which is
// deterministic: message delivery is ordered by sender ID and per-node
// randomness comes from per-node seeded generators.
//
// Delivery is push: once a message is validated, tallied against the cut
// and shown to the hook, the round loop hands it to its receiver's
// PushProgram.Receive with the payload still in the sender's buffer, so no
// message is queued in an inbox or copied. Programs that only implement
// Round are driven through an inbox adapter that keeps Round's contract.
// A payload a node sends to every neighbour is one broadcast, returned by
// Send beside its outbox and expanded by the round loop over the sender's
// adjacency row: one message per neighbour, with no outbox entry each.
// Outbox backing arrays are recycled, and an outbox whose destinations
// walk the sender's sorted neighbour list is validated by that walk alone;
// any other outbox falls back to a stamped duplicate array and the graph's
// bitset rows. See docs/performance.md for the architecture and
// measurements.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"congestlb/internal/graphs"
)

// Message is a payload sent over one edge in one round.
type Message struct {
	// From and To are the endpoint node IDs; To must be a neighbour of
	// From in the network graph.
	From, To graphs.NodeID
	// Data is the payload; its bit size is 8*len(Data) and must not
	// exceed the per-edge bandwidth. A delivered payload is only valid
	// for the duration of the Receive, Round or hook call that gets it,
	// and must not be modified: programs that keep a payload across
	// calls must copy it.
	Data []byte
}

// Bits returns the bandwidth charge of the message.
func (m Message) Bits() int64 { return int64(len(m.Data)) * 8 }

// NodeInfo is the static knowledge a node starts with: its own identifier,
// weight, neighbourhood, the network size (a standard CONGEST assumption),
// and a private random generator.
type NodeInfo struct {
	ID        graphs.NodeID
	Weight    int64
	Neighbors []graphs.NodeID
	// N is the number of nodes in the network.
	N int
	// Rand is the node's private randomness, seeded deterministically
	// from the engine seed and the node ID. Its source is created on the
	// first draw, so programs that never draw pay no generator state.
	Rand *rand.Rand
}

// nodeRand returns node u's private generator under the engine seed: the
// stream of rand.NewSource(seed ^ (u+1)·0x5DEECE66D), created lazily.
func nodeRand(seed int64, u int) *rand.Rand {
	return rand.New(&lazySource{seed: seed ^ (int64(u)+1)*0x5DEECE66D})
}

// lazySource is a rand.Source64 that creates rand.NewSource(seed) on its
// first draw. An eager source is a ~4.9 KB table filled from the seed,
// and most node programs never draw.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) get() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.get().Int63() }
func (s *lazySource) Uint64() uint64 { return s.get().Uint64() }

// Seed drops the current source; the next draw creates one from seed.
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// NodeProgram is the per-node state machine. Implementations must not
// retain or mutate the inbox slice — or any message payload in it — across
// calls: the engine reuses both between rounds. A program that also
// implements PushProgram is driven through Receive and Send instead of
// Round.
type NodeProgram interface {
	// Init is called once before the first round.
	Init(info NodeInfo)
	// Round consumes the messages delivered this round (sent by
	// neighbours in the previous round; empty in round 1) and returns the
	// messages to send. Returning a message to a non-neighbour or two
	// messages to the same neighbour is an error. Returned payloads must
	// stay valid and unchanged until the program's next Round call: the
	// engine hands them to their receivers in place, so programs may (and
	// should) encode payloads into per-program scratch buffers.
	Round(round int, inbox []Message) []Message
	// Done reports whether the node has terminated. A terminated node
	// stops sending; the run ends when every node is done.
	Done() bool
	// Output returns the node's final output (algorithm-specific).
	Output() any
}

// PushProgram is a NodeProgram the round loop drives by push delivery. In
// round r the engine calls Send(r) on every node not yet done, reads the
// node's Done() right after it, and then delivers the round's messages:
// each validated message is tallied, shown to the hook and handed to its
// receiver's Receive(r, m), unless the receiver reported done after its
// Send. A broadcast is delivered as one message per neighbour, in
// neighbour order, before the node's unicasts, and hooks see each of
// those messages. Round must behave as Receive(round-1, m) for every
// inbox message, in order, followed by Send(round, nil), and return the
// messages Send's results stand for (ExpandSend).
type PushProgram interface {
	NodeProgram
	// Receive consumes one message sent to the node in the given round,
	// in sender-ID order among that round's messages. m.Data is the
	// sender's buffer: it is valid only during the call and must be
	// neither retained nor modified.
	Receive(round int, m Message)
	// Send appends the unicasts the node sends in the given round to out
	// (length 0, capacity recycled across rounds) and returns them, with
	// the payload the node sends to every neighbour this round: nil for
	// none, a non-nil empty slice for a 0-bit broadcast. A broadcast
	// already reaches every neighbour, so a unicast sent beside one is
	// refused as a second message, a send to a non-neighbour or a forged
	// one. All payloads are read in place while the round is delivered,
	// which may interleave with the node's own Receive calls, so they
	// must stay unchanged until the node's next Send.
	Send(round int, out []Message) (unicasts []Message, broadcast []byte)
}

// ExpandSend returns the messages one Send result of node from stands
// for, in the order the round loop delivers them: the broadcast, if not
// nil, as one message to each neighbour in nbrs, then the unicasts in
// out. A PushProgram's Round returns it over its Send results.
func ExpandSend(from graphs.NodeID, nbrs []graphs.NodeID, out []Message, broadcast []byte) []Message {
	if broadcast == nil {
		return out
	}
	all := make([]Message, len(nbrs), len(nbrs)+len(out))
	for i, v := range nbrs {
		all[i] = Message{From: from, To: v, Data: broadcast}
	}
	return append(all, out...)
}

// MessageHook observes every delivered message, after the engine has
// validated it and tallied it against Config.Cut and before its receiver
// gets it. The payload is the sender's buffer: it is only valid for the
// duration of the call and must not be modified; hooks that retain it must
// copy.
type MessageHook func(round int, msg Message) error

// Config parameterises a simulation run.
type Config struct {
	// BandwidthBits is B, the per-edge per-direction bit budget per
	// round. 0 selects the CONGEST default 32·⌈log₂(n+2)⌉ bits — a
	// Θ(log n) bandwidth with a constant generous enough to carry a node
	// ID plus a small header in one message even on tiny test networks.
	BandwidthBits int64
	// MaxRounds aborts runs that fail to terminate; 0 means 4·n²+64,
	// comfortably above the O(n²) universal upper bound the paper cites.
	MaxRounds int
	// Seed drives all node randomness; runs with equal seeds are
	// identical.
	Seed int64
	// Deprecated: Parallel is ignored. Every run goes through the one
	// round loop; the field remains so that existing callers compile.
	Parallel bool
	// Deprecated: Workers is ignored, like Parallel.
	Workers int
	// Cut, if set, is a partition of the nodes among players. Every
	// delivered message whose sender and receiver have different owners
	// adds its bits to Stats.CutBits and one write to Stats.CutMessages:
	// the blackboard cost Theorem 5 charges the induced protocol. A
	// crossing message of 0 bits fails the run, as a blackboard write of
	// 0 bits would. Cut must cover exactly the graph's nodes.
	Cut *graphs.Partition
	// Hook, if set, observes every delivered message, after the Cut
	// tally.
	Hook MessageHook
	// Metrics, if set, receives the run's cost counters on successful
	// completion (see EngineMetrics). internal/core stamps it from a
	// context-bound observability registry; direct engine users may set
	// it themselves. Nil costs nothing.
	Metrics *EngineMetrics
}

// DefaultBandwidth returns the default B for an n-node network.
func DefaultBandwidth(n int) int64 {
	return 32 * int64(math.Ceil(math.Log2(float64(n+2))))
}

// Stats aggregates the cost of a run.
type Stats struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// TotalBits is the total payload volume delivered.
	TotalBits int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int64
	// CutBits and CutMessages are the payload volume and the number of
	// the delivered messages that crossed Config.Cut; both stay 0 without
	// a Cut.
	CutBits     int64
	CutMessages int64
}

// Result is the outcome of a completed run.
type Result struct {
	Stats Stats
	// Outputs holds each node's Output(), indexed by node ID.
	Outputs []any
}

// ErrBandwidthExceeded reports a message larger than B.
var ErrBandwidthExceeded = errors.New("congest: message exceeds bandwidth")

// ErrMaxRounds reports a run that did not terminate in time.
var ErrMaxRounds = errors.New("congest: exceeded maximum rounds")

// errZeroBitCut fails a run in which a message of 0 bits crosses
// Config.Cut: the induced protocol cannot write an empty payload on its
// blackboard. The text is the one a blackboard-writing hook produced
// when the tally ran as a hook, and callers match on it.
var errZeroBitCut = errors.New("congest: hook: cc: write of 0 bits")

// adjacency holds a graph's sorted neighbour lists in one slab:
// nbrs[off[u]:off[u+1]] are u's neighbours in increasing order. The round
// loop validates ordered sends against it (see deliver).
type adjacency struct {
	off  []int
	nbrs []graphs.NodeID
}

func newAdjacency(g *graphs.Graph) *adjacency {
	size := g.N()
	a := &adjacency{off: make([]int, size+1), nbrs: make([]graphs.NodeID, 0, 2*g.M())}
	for u := 0; u < size; u++ {
		g.ForEachNeighbor(u, func(v graphs.NodeID) { a.nbrs = append(a.nbrs, v) })
		a.off[u+1] = len(a.nbrs)
	}
	return a
}

// Network binds a graph to one NodeProgram per node and holds the engine
// state of its runs: the programs, the adjacency their sends are checked
// against and broadcasts are expanded over, the per-node outboxes,
// broadcasts and done flags, and the running Stats.
// The state is retained across Run calls: repeated runs (benchmark
// iterations, replayed simulations) reuse the outbox backing arrays and
// the inbox adapters' buffers at their previous capacity instead of
// re-growing them by doubling.
type Network struct {
	g   *graphs.Graph
	adj *adjacency
	// nodes[u] drives node u: its program if that is a PushProgram, else
	// an inboxAdapter over it; resolved once so the round loop makes no
	// per-call type asserts.
	nodes     []PushProgram
	bw        int64
	maxRounds int
	cfg       Config

	outboxes [][]Message
	// bcasts[u] is the broadcast node u's last Send returned (nil: none).
	bcasts [][]byte
	// done[u] is node u's Done(), read after Init and after each of its
	// Send calls; live counts the nodes not done.
	done []bool
	live int
	// seen implements duplicate-destination detection without a
	// per-node-per-round map: seen[v] == stamp means v already received a
	// message from the outbox being validated. Stamps only ever grow.
	seen  []int64
	stamp int64
	stats Stats
}

// NewNetwork validates the wiring and prepares a run. programs[u] drives
// node u; len(programs) must equal g.N().
func NewNetwork(g *graphs.Graph, programs []NodeProgram, cfg Config) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("congest: nil graph")
	}
	size := g.N()
	if len(programs) != size {
		return nil, fmt.Errorf("congest: %d programs for %d nodes", len(programs), size)
	}
	for u, p := range programs {
		if p == nil {
			return nil, fmt.Errorf("congest: nil program at node %d", u)
		}
	}
	bw := cfg.BandwidthBits
	if bw == 0 {
		bw = DefaultBandwidth(size)
	}
	if bw < 1 {
		return nil, fmt.Errorf("congest: bandwidth %d bits must be >= 1", bw)
	}
	if cfg.Cut != nil {
		if err := cfg.Cut.Validate(g); err != nil {
			return nil, fmt.Errorf("congest: cut: %w", err)
		}
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*size*size + 64
	}
	nodes := make([]PushProgram, size)
	for u, p := range programs {
		if pp, ok := p.(PushProgram); ok {
			nodes[u] = pp
		} else {
			nodes[u] = &inboxAdapter{NodeProgram: p}
		}
	}
	return &Network{g: g, nodes: nodes, bw: bw, maxRounds: maxRounds, cfg: cfg}, nil
}

// initPrograms hands every program its NodeInfo and reads its Done(). The
// neighbour lists the programs get are copies, cut from one slab: the
// round loop validates against n.adj, which no program may be able to
// modify.
func (n *Network) initPrograms() {
	size := len(n.nodes)
	nbrs := slices.Clone(n.adj.nbrs)
	n.live = 0
	for u, p := range n.nodes {
		lo, hi := n.adj.off[u], n.adj.off[u+1]
		p.Init(NodeInfo{
			ID:        u,
			Weight:    n.g.Weight(u),
			Neighbors: nbrs[lo:hi:hi],
			N:         size,
			Rand:      nodeRand(n.cfg.Seed, u),
		})
		n.done[u] = p.Done()
		if !n.done[u] {
			n.live++
		}
	}
}

// step runs one round: the MaxRounds failsafe, the termination check, the
// Send calls of the nodes not done, each followed by a read of the node's
// Done(), then deliver. finished reports that every node was done at the
// round boundary; stats.Rounds is then set.
func (n *Network) step(round int) (finished bool, err error) {
	if round > n.maxRounds {
		return false, fmt.Errorf("%w: %d", ErrMaxRounds, n.maxRounds)
	}
	if n.live == 0 {
		n.stats.Rounds = round - 1
		return true, nil
	}
	for u, p := range n.nodes {
		if n.done[u] {
			n.outboxes[u], n.bcasts[u] = n.outboxes[u][:0], nil
			continue
		}
		n.outboxes[u], n.bcasts[u] = p.Send(round, n.outboxes[u][:0])
		if p.Done() {
			n.done[u] = true
			n.live--
		}
	}
	return false, n.deliver(round)
}

// deliver validates, accounts for and delivers the round's sends.
// Iterating senders in ID order hands every receiver its messages in
// sender order — the deterministic delivery order — with no sort pass.
//
// A sender's broadcast goes first, one message to each neighbour on its
// adjacency row, in row order (see broadcast). It needs one check, of its
// bandwidth, against the first neighbour: that is where the per-neighbour
// outbox it stands for would fail. Its neighbours are then stamped into
// seen, so any unicast beside it gets validateMsg's error for that outbox.
//
// An outbox is checked in two phases. While its destinations are strictly
// increasing neighbours of the sender, each is found in the sender's
// sorted neighbour list after the previous one: at the next position in
// one comparison, elsewhere by binary search. A match proves adjacency,
// and the strict increase proves it is no duplicate. The first send that
// does not match (or is forged, or too large) ends that phase: the sends
// before it are stamped into seen, and validateMsg checks it and the rest
// of the outbox, so every error is the one validateMsg gives.
//
// A validated send is tallied against the cut, shown to the hook and
// handed to its receiver's Receive — unless the receiver reported done
// after its Send this round — in that order, with its payload in the
// sender's buffer. The unicasts' Stats are summed in locals and added
// once the round is delivered.
func (n *Network) deliver(round int) error {
	nodes, done, cut, hook, bw := n.nodes, n.done, n.cfg.Cut, n.cfg.Hook, n.bw
	var messages, totalBits, maxBits, cutBits, cutMessages int64
	for u, out := range n.outboxes {
		data := n.bcasts[u]
		if len(out) == 0 && data == nil {
			continue
		}
		n.stamp++
		owner := 0
		if cut != nil {
			owner = cut.Of(u)
		}
		nbrs := n.adj.nbrs[n.adj.off[u]:n.adj.off[u+1]]
		ordered := true
		if data != nil && len(nbrs) > 0 {
			if err := n.broadcast(round, u, owner, nbrs, data); err != nil {
				return err
			}
			if len(out) > 0 {
				for _, v := range nbrs {
					n.seen[v] = n.stamp
				}
				ordered = false
			}
		}
		next := 0
		for i := range out {
			msg := &out[i]
			bits := msg.Bits()
			if ordered {
				if msg.From != u || bits > bw {
					ordered = false
				} else if next < len(nbrs) && nbrs[next] == msg.To {
					next++
				} else if j, found := slices.BinarySearch(nbrs[next:], msg.To); found {
					next += j + 1
				} else {
					ordered = false
				}
				if !ordered {
					for _, prev := range out[:i] {
						n.seen[prev.To] = n.stamp
					}
				}
			}
			if !ordered {
				if err := validateMsg(n.g, bw, u, *msg, round, n.seen, n.stamp); err != nil {
					return err
				}
			}
			if cut != nil && cut.Of(msg.To) != owner {
				if bits == 0 {
					return errZeroBitCut
				}
				cutBits += bits
				cutMessages++
			}
			messages++
			totalBits += bits
			maxBits = max(maxBits, bits)
			if hook != nil {
				if err := hook(round, *msg); err != nil {
					return fmt.Errorf("congest: hook: %w", err)
				}
			}
			if !done[msg.To] {
				nodes[msg.To].Receive(round, *msg)
			}
		}
	}
	n.stats.Messages += messages
	n.stats.TotalBits += totalBits
	n.stats.MaxMessageBits = max(n.stats.MaxMessageBits, maxBits)
	n.stats.CutBits += cutBits
	n.stats.CutMessages += cutMessages
	return nil
}

// broadcast delivers node u's broadcast of data to each of its neighbours
// nbrs, in order, as deliver delivers a validated unicast: cut tally
// (owner is u's player), hook, then Receive unless the receiver is done.
// It adds its messages to n.stats itself.
func (n *Network) broadcast(round, u, owner int, nbrs []graphs.NodeID, data []byte) error {
	nodes, done, cut, hook := n.nodes, n.done, n.cfg.Cut, n.cfg.Hook
	bits := int64(len(data)) * 8
	if bits > n.bw {
		return errBandwidth(bits, n.bw, u, nbrs[0], round)
	}
	var cutBits, cutMessages int64
	for _, v := range nbrs {
		msg := Message{From: u, To: v, Data: data}
		if cut != nil && cut.Of(v) != owner {
			if bits == 0 {
				return errZeroBitCut
			}
			cutBits += bits
			cutMessages++
		}
		if hook != nil {
			if err := hook(round, msg); err != nil {
				return fmt.Errorf("congest: hook: %w", err)
			}
		}
		if !done[v] {
			nodes[v].Receive(round, msg)
		}
	}
	n.stats.Messages += int64(len(nbrs))
	n.stats.TotalBits += int64(len(nbrs)) * bits
	n.stats.MaxMessageBits = max(n.stats.MaxMessageBits, bits)
	n.stats.CutBits += cutBits
	n.stats.CutMessages += cutMessages
	return nil
}

// inboxAdapter drives a NodeProgram that only implements Round through the
// push interface: Receive queues each message with its payload copied into
// the adapter's buffer, and Send hands the queue to Round as the inbox of
// the node's next round. The buffer is reused once Round has returned;
// growth leaves the payloads already queued in the old block.
type inboxAdapter struct {
	NodeProgram
	inbox []Message
	buf   []byte
}

func (a *inboxAdapter) Init(info NodeInfo) {
	a.inbox, a.buf = a.inbox[:0], a.buf[:0]
	a.NodeProgram.Init(info)
}

func (a *inboxAdapter) Receive(_ int, m Message) {
	off := len(a.buf)
	a.buf = append(a.buf, m.Data...)
	m.Data = a.buf[off:len(a.buf):len(a.buf)]
	a.inbox = append(a.inbox, m)
}

func (a *inboxAdapter) Send(round int, out []Message) ([]Message, []byte) {
	out = append(out, a.Round(round, a.inbox)...)
	a.inbox, a.buf = a.inbox[:0], a.buf[:0]
	return out, nil
}

// validateMsg enforces the CONGEST sending rules for one outbox message of
// sender u in the given round: no forged sender, neighbours only, at most
// one message per destination (seen[v] == stamp marks v as already served
// from this outbox), and the bandwidth bound, checked in that order.
func validateMsg(g *graphs.Graph, bw int64, u int, msg Message, round int, seen []int64, stamp int64) error {
	if msg.From != u {
		return fmt.Errorf("congest: node %d forged sender %d in round %d", u, msg.From, round)
	}
	if !g.HasEdge(u, msg.To) {
		return fmt.Errorf("congest: node %d sent to non-neighbour %d in round %d", u, msg.To, round)
	}
	if seen[msg.To] == stamp {
		return fmt.Errorf("congest: node %d sent two messages to %d in round %d", u, msg.To, round)
	}
	seen[msg.To] = stamp
	if msg.Bits() > bw {
		return errBandwidth(msg.Bits(), bw, u, msg.To, round)
	}
	return nil
}

// errBandwidth is the error of a message of the given size from u to v.
func errBandwidth(bits, bw int64, u, v, round int) error {
	return fmt.Errorf("%w: %d bits > B=%d (node %d→%d, round %d)", ErrBandwidthExceeded, bits, bw, u, v, round)
}

func (n *Network) collect() Result {
	outputs := make([]any, len(n.nodes))
	for u, p := range n.nodes {
		outputs[u] = p.Output()
	}
	return Result{Stats: n.stats, Outputs: outputs}
}

// Bandwidth returns the effective per-edge bit budget B.
func (n *Network) Bandwidth() int64 { return n.bw }

// Graph returns the underlying graph.
func (n *Network) Graph() *graphs.Graph { return n.g }

// Run executes the simulation to termination and returns outputs and stats.
func (n *Network) Run() (Result, error) {
	return n.RunCtx(context.Background())
}

// RunCtx is Run under a context: the synchronous round loop checks the
// context once per round and aborts with ctx.Err() when it fires, so a
// caller can cancel (or deadline) a long simulation between rounds. Node
// programs are never interrupted mid-round — a run observes cancellation
// only at round boundaries, which keeps partial state impossible. A nil
// ctx means Background.
func (n *Network) RunCtx(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctxDone := ctx.Done()
	size := n.g.N()
	n.adj = newAdjacency(n.g)
	if len(n.outboxes) != size {
		n.outboxes = make([][]Message, size)
		n.bcasts = make([][]byte, size)
		n.done = make([]bool, size)
		n.seen = make([]int64, size)
	} else {
		for u := range n.outboxes {
			n.outboxes[u] = n.outboxes[u][:0]
		}
	}
	n.initPrograms()
	n.stats = Stats{}

	for round := 1; ; round++ {
		if ctxDone != nil {
			select {
			case <-ctxDone:
				return Result{}, fmt.Errorf("congest: run cancelled in round %d: %w", round, ctx.Err())
			default:
			}
		}
		finished, err := n.step(round)
		if err != nil {
			return Result{}, err
		}
		if finished {
			n.cfg.Metrics.recordRun(n.stats)
			return n.collect(), nil
		}
	}
}
