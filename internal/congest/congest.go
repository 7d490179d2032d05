// Package congest simulates the CONGEST model of distributed computing:
// a synchronous network of n nodes with unique O(log n)-bit identifiers,
// where in every round each node may send a (possibly different) B-bit
// message to each of its neighbours, with B = O(log n).
//
// The simulator enforces the bandwidth bound bit-exactly, accounts every
// message, and exposes a per-message hook that the reduction framework
// (internal/core) uses to route cut-edge messages onto a communication-
// complexity blackboard, realising the simulation argument of Theorem 5 in
// Efron, Grossman and Khoury (PODC 2020).
//
// Node behaviour is written as a NodeProgram state machine. The engine can
// run programs sequentially (fully deterministic), or on a two-stage
// pipeline over persistent workers holding contiguous node ranges, where
// round k+1's compute overlaps round k's delivery (deterministic too:
// message delivery is ordered by node ID, per-node randomness comes from
// per-node seeded generators, and a barrier protocol keeps transcripts
// bit-identical — see pipeline.go). Many small instances can additionally
// run through one lockstep engine pass via RunBatch (see batch.go).
//
// The round loop is (near-)zero-allocation: delivered payloads live in a
// per-round byte arena reused across rounds, inbox/outbox backing arrays
// are recycled, duplicate-send detection uses a stamped array instead of
// per-round maps, and adjacency checks hit the graph's bitset rows
// directly. See docs/performance.md for the architecture and measurements.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"

	"congestlb/internal/graphs"
)

// Message is a payload sent over one edge in one round.
type Message struct {
	// From and To are the endpoint node IDs; To must be a neighbour of
	// From in the network graph.
	From, To graphs.NodeID
	// Data is the payload; its bit size is 8*len(Data) and must not
	// exceed the per-edge bandwidth. Delivered payloads are only valid
	// for the duration of the Round (or hook) call that receives them:
	// the engine recycles the backing storage, so programs that keep a
	// payload across rounds must copy it.
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
// calls: the engine reuses both between rounds.
type NodeProgram interface {
	// Init is called once before the first round.
	Init(info NodeInfo)
	// Round consumes the messages delivered this round (sent by
	// neighbours in the previous round; empty in round 1) and returns the
	// messages to send. Returning a message to a non-neighbour or two
	// messages to the same neighbour is an error. Returned payloads only
	// need to stay valid until the program's next Round call: the engine
	// copies them into its delivery arena, so programs may (and should)
	// encode payloads into per-program scratch buffers.
	Round(round int, inbox []Message) []Message
	// Done reports whether the node has terminated. A terminated node
	// stops sending; the run ends when every node is done.
	Done() bool
	// Output returns the node's final output (algorithm-specific).
	Output() any
}

// BufferedProgram is an optional NodeProgram extension for allocation-free
// sending: the engine calls AppendRound with a reusable outbox slice (length
// zero, capacity recycled across rounds) instead of Round, so steady-state
// rounds need no outbox allocation at all. Round and AppendRound must be
// behaviourally identical; Round is still used by engines unaware of the
// extension.
type BufferedProgram interface {
	NodeProgram
	// AppendRound is Round, but appends the outgoing messages to out
	// (always non-nil with length 0) and returns it.
	AppendRound(round int, inbox []Message, out []Message) []Message
}

// MessageHook observes every delivered message. The reduction framework
// uses it to count the bits of cut-edge messages. The message payload
// is only valid for the duration of the call; hooks that retain it must
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
	// Parallel selects the pipelined engine: node ranges are computed by
	// a persistent worker set, and round k+1's compute overlaps round k's
	// delivery. Results are bit-identical to the sequential engine; only
	// wall-clock differs. The CONGESTLB_PIPELINE environment variable
	// overrides this field for every run ("1"/"on"/"force" enables,
	// "0"/"off" disables) — the forcing lever the determinism CI uses.
	Parallel bool
	// Workers caps the pipelined engine's worker count; 0 means
	// GOMAXPROCS. The determinism suites pin 1/2/4/8 regardless of host
	// core count. With one effective worker the sequential engine runs —
	// the pipeline would have nothing to overlap.
	Workers int
	// Hook, if set, observes every delivered message.
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

// byteArena is a bump allocator for message payloads: copy carves a stable
// copy of p out of a backing block reused across rounds. Old blocks
// orphaned by growth stay valid for the slices already issued (the garbage
// collector reclaims them once those die), so growth never invalidates a
// delivered payload; in steady state, once the block covers the peak round
// volume, copy allocates nothing.
type byteArena struct {
	buf []byte
	off int
}

func (a *byteArena) copy(p []byte) []byte {
	if a.off+len(p) > len(a.buf) {
		size := 2 * (a.off + len(p))
		if size < 4096 {
			size = 4096
		}
		a.buf = make([]byte, size)
		a.off = 0
	}
	dst := a.buf[a.off : a.off+len(p) : a.off+len(p)]
	copy(dst, p)
	a.off += len(p)
	return dst
}

// reset recycles the arena for the next round. Slices issued before the
// reset must no longer be read.
func (a *byteArena) reset() { a.off = 0 }

// Network binds a graph to one NodeProgram per node.
type Network struct {
	g        *graphs.Graph
	programs []NodeProgram
	// buffered[u] is programs[u] if it implements BufferedProgram, else
	// nil; resolved once so the round loop avoids per-call type asserts.
	buffered []BufferedProgram
	cfg      Config
	bw       int64

	// Reusable per-run state (see Run).
	inboxes  [][]Message
	outboxes [][]Message
	arena    byteArena
	// seen/seenStamp implement duplicate-destination detection without a
	// per-node-per-round map: seen[v] == seenStamp means v already
	// received a message from the outbox currently being validated.
	seen      []int64
	seenStamp int64
	// pipe holds the pipelined engine's state, retained across Run calls
	// like the sequential buffers above (nil until the first pipelined run).
	pipe *pipeline
}

// NewNetwork validates the wiring and prepares a run. programs[u] drives
// node u; len(programs) must equal g.N().
func NewNetwork(g *graphs.Graph, programs []NodeProgram, cfg Config) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("congest: nil graph")
	}
	if len(programs) != g.N() {
		return nil, fmt.Errorf("congest: %d programs for %d nodes", len(programs), g.N())
	}
	for u, p := range programs {
		if p == nil {
			return nil, fmt.Errorf("congest: nil program at node %d", u)
		}
	}
	bw := cfg.BandwidthBits
	if bw == 0 {
		bw = DefaultBandwidth(g.N())
	}
	if bw < 1 {
		return nil, fmt.Errorf("congest: bandwidth %d bits must be >= 1", bw)
	}
	buffered := make([]BufferedProgram, len(programs))
	for u, p := range programs {
		if bp, ok := p.(BufferedProgram); ok {
			buffered[u] = bp
		}
	}
	return &Network{g: g, programs: programs, buffered: buffered, cfg: cfg, bw: bw}, nil
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
	maxRounds := n.cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*size*size + 64
	}
	for u := 0; u < size; u++ {
		n.programs[u].Init(NodeInfo{
			ID:        u,
			Weight:    n.g.Weight(u),
			Neighbors: n.g.Neighbors(u),
			N:         size,
			Rand:      nodeRand(n.cfg.Seed, u),
		})
	}

	var stats Stats
	// Run state is retained across Run calls on the same Network: repeated
	// runs (benchmark iterations, replayed simulations) reuse the inbox/
	// outbox backing arrays and the arena block at their previous
	// high-water capacity instead of re-growing them by doubling. Stale
	// `seen` stamps are harmless because seenStamp only ever increases.
	if len(n.inboxes) != size {
		n.inboxes = make([][]Message, size)
		n.outboxes = make([][]Message, size)
		n.seen = make([]int64, size)
		n.seenStamp = 0
	} else {
		for u := 0; u < size; u++ {
			n.inboxes[u] = n.inboxes[u][:0]
			n.outboxes[u] = n.outboxes[u][:0]
		}
	}

	if workers := n.effectiveWorkers(); workers > 1 {
		return n.runPipelined(ctx, workers, maxRounds)
	}
	// Fresh Networks seed their arena from the process-wide high-water
	// mark, so the first rounds of a new run skip the grow-and-orphan
	// doubling the previous runs already paid for. The seed is capped at
	// this network's own per-round ceiling — 2m directed messages of at
	// most B bits each — so a small network never inherits a huge run's
	// block (with concurrent Networks that would multiply peak RSS for no
	// benefit).
	if n.arena.buf == nil {
		hw := arenaHighWater.Load()
		if ceil := int64(2*n.g.M()) * ((n.bw + 7) / 8); hw > ceil {
			hw = ceil
		}
		if hw > 0 {
			n.arena.buf = make([]byte, hw)
		}
	}
	defer n.recordArenaHighWater()
	n.arena.reset()

	for round := 1; ; round++ {
		if ctxDone != nil {
			select {
			case <-ctxDone:
				return Result{}, fmt.Errorf("congest: run cancelled in round %d: %w", round, ctx.Err())
			default:
			}
		}
		if round > maxRounds {
			return Result{}, fmt.Errorf("%w: %d", ErrMaxRounds, maxRounds)
		}
		allDone := true
		for u := 0; u < size; u++ {
			if !n.programs[u].Done() {
				allDone = false
				break
			}
		}
		if allDone {
			stats.Rounds = round - 1
			n.cfg.Metrics.recordRun(stats)
			return n.collect(stats), nil
		}

		n.stepRange(round, 0, size)

		// All Round calls of this round have returned, so the payloads
		// delivered last round are dead: recycle their arena, then
		// validate, account, and deliver this round's sends out of it.
		// Iterating senders in ID order leaves every inbox sorted by
		// sender — the deterministic delivery order — with no sort pass.
		n.arena.reset()
		for u := 0; u < size; u++ {
			n.inboxes[u] = n.inboxes[u][:0]
		}
		for u := 0; u < size; u++ {
			n.seenStamp++
			for _, msg := range n.outboxes[u] {
				if err := validateMsg(n.g, n.bw, u, msg, round, n.seen, n.seenStamp); err != nil {
					return Result{}, err
				}
				stats.Messages++
				stats.TotalBits += msg.Bits()
				if msg.Bits() > stats.MaxMessageBits {
					stats.MaxMessageBits = msg.Bits()
				}
				delivered := Message{From: msg.From, To: msg.To, Data: n.arena.copy(msg.Data)}
				if n.cfg.Hook != nil {
					if err := n.cfg.Hook(round, delivered); err != nil {
						return Result{}, fmt.Errorf("congest: hook: %w", err)
					}
				}
				n.inboxes[msg.To] = append(n.inboxes[msg.To], delivered)
			}
		}
	}
}

// validateMsg enforces the CONGEST sending rules for one outbox message of
// sender u in the given round: no forged sender, neighbours only, at most
// one message per destination (seen[v] == stamp marks v as already served
// from this outbox), and the bandwidth bound. Shared by the sequential
// delivery loop, the pipelined engine's compute-stage validation, and the
// batch engine, so all three report byte-identical errors.
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
		return fmt.Errorf("%w: %d bits > B=%d (node %d→%d, round %d)",
			ErrBandwidthExceeded, msg.Bits(), bw, msg.From, msg.To, round)
	}
	return nil
}

// effectiveWorkers resolves Config.Parallel/Workers and the
// CONGESTLB_PIPELINE override into the engine to use: 1 means the
// sequential loop, >1 the pipelined engine with that many workers. The
// environment variable is read per Run (not cached) so tests can flip it
// with t.Setenv.
func (n *Network) effectiveWorkers() int {
	parallel := n.cfg.Parallel
	switch os.Getenv("CONGESTLB_PIPELINE") {
	case "1", "on", "force":
		parallel = true
	case "0", "off":
		parallel = false
	}
	if !parallel {
		return 1
	}
	w := n.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n.g.N() {
		w = n.g.N()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// arenaHighWater remembers the delivery-arena block size recent Runs in
// this process settled on. New Networks pre-size their arena from it, so a
// fresh Network serving a workload the process has seen before reaches its
// steady state without any doubling steps.
var arenaHighWater atomic.Int64

// recordArenaHighWater folds this run's settled arena size into the
// process-wide estimate. Growth takes effect immediately; shrinkage decays
// — a run that settled below the stored estimate pulls it a quarter of the
// way down. A one-off huge run (a big batch, a scaling sweep) therefore
// stops inflating fresh Networks after a handful of small runs, instead of
// pinning the estimate at its lifetime peak forever. Runs that delivered
// nothing at all carry no sizing information and leave the estimate alone.
func (n *Network) recordArenaHighWater() {
	size := int64(len(n.arena.buf))
	if size == 0 {
		return
	}
	for {
		cur := arenaHighWater.Load()
		target := size
		if size < cur {
			// size + 3/4 of the gap: floors to size itself once the gap
			// closes, so the estimate converges exactly instead of
			// stalling a few bytes high on integer division.
			target = size + (cur-size)*3/4
		}
		if target == cur || arenaHighWater.CompareAndSwap(cur, target) {
			return
		}
	}
}

// stepRange invokes Round (or AppendRound) for nodes [lo, hi) in ID order.
// Distinct ranges touch disjoint engine and program state, so the worker
// pool can run them concurrently.
func (n *Network) stepRange(round, lo, hi int) {
	for u := lo; u < hi; u++ {
		if n.programs[u].Done() {
			n.outboxes[u] = n.outboxes[u][:0]
			continue
		}
		if bp := n.buffered[u]; bp != nil {
			n.outboxes[u] = bp.AppendRound(round, n.inboxes[u], n.outboxes[u][:0])
		} else {
			n.outboxes[u] = n.programs[u].Round(round, n.inboxes[u])
		}
	}
}

// splitByDegree partitions [0, g.N()) into at most `workers` contiguous,
// non-empty ranges of roughly equal cumulative degree, returned as bounds
// (range w is [bounds[w], bounds[w+1])). A node's per-round work in the
// message-bound programs scales with its degree (inbox size, outbox size,
// forwarding queues), so equal-degree ranges balance skewed constructions
// — a hub-heavy lower-bound graph no longer serialises on the worker that
// happened to draw the hubs, which equal-count splitting does. Each node
// costs degree+1, so isolated nodes still carry weight and every split is
// well-defined on edgeless graphs.
func splitByDegree(g *graphs.Graph, workers int) []int {
	size := g.N()
	var total int64
	for u := 0; u < size; u++ {
		total += int64(g.Degree(u)) + 1
	}
	bounds := make([]int, 1, workers+1)
	var cum int64
	for u := 0; u < size; u++ {
		cum += int64(g.Degree(u)) + 1
		w := len(bounds) // ranges closed so far + 1
		remainingWorkers := workers - w
		// Close the current range once it reached its fair share, but
		// never so late that the remaining workers outnumber the
		// remaining nodes.
		if u+1 < size && w < workers &&
			(cum*int64(workers) >= int64(w)*total || size-(u+1) <= remainingWorkers) {
			bounds = append(bounds, u+1)
		}
	}
	return append(bounds, size)
}

func (n *Network) collect(stats Stats) Result {
	outputs := make([]any, n.g.N())
	for u := range outputs {
		outputs[u] = n.programs[u].Output()
	}
	return Result{Stats: stats, Outputs: outputs}
}
