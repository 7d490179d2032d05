// Package congestlb is a from-scratch, stdlib-only reproduction of
//
//	Beyond Alice and Bob: Improved Inapproximability for
//	Maximum Independent Set in CONGEST
//	Yuval Efron, Ofer Grossman, Seri Khoury — PODC 2020
//
// as a usable Go library. It provides:
//
//   - the CONGEST model simulator (synchronous rounds, Θ(log n)-bit
//     bandwidth, bit-exact accounting) and reference MaxIS algorithms
//     (Luby, deterministic rank-greedy, gossip-and-solve-exactly);
//   - the shared-blackboard multi-party communication model with the
//     promise pairwise disjointness problem;
//   - the paper's two families of lower bound graphs — the linear family
//     of Section 4 and the quadratic family of Section 5 — with their gap
//     predicates, constructive witnesses and the Remark 1 unweighted
//     blow-up;
//   - the reduction machinery: the Theorem 5 simulation that runs any
//     CONGEST algorithm as a blackboard protocol while charging every
//     cut-crossing message, and the Corollary 1 / Theorem 1-2 round
//     lower-bound calculators.
//
// The package is a facade: implementation lives in internal/ packages and
// is re-exported here via type aliases, so the whole library is usable
// through this single import.
//
// # Quick start
//
// The service handle is Lab (see lab.go and docs/api.md): an isolated
// instance of the library's solve cache and worker pool,
// with context-first methods for everything long-running. Two Labs in one
// process share nothing; cancelling a context stops simulations at round
// boundaries and branch-and-bound solves on their batched step cadence,
// returning the best incumbent with ctx.Err().
//
//	lab, _ := congestlb.New(congestlb.WithJobs(4))
//	defer lab.Close()
//	p := congestlb.Params{T: 2, Alpha: 1, Ell: 3}
//	fam, _ := congestlb.NewLinear(p)
//	in, _, _ := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
//	report, _ := lab.RunReduction(ctx, fam, in, congestlb.CongestConfig{})
//	fmt.Println(report.Opt, report.AccountingHolds())
//
// Every solve goes through a cache its caller owns: a Lab's, or, for the
// session-less helpers (GossipExactPrograms, …), one of their own. Every
// lower-bound graph is built from scratch. Nothing in the process is
// shared by default. Version 2.0.0 removed the 1.x
// package-level entry points (RunReduction, ExactMaxIS, the Set*/Shared*
// configuration globals, …); docs/api.md maps each to its Lab method.
// Version 3.0.0 removed the solver-worker settings: the exact solver runs
// one deterministic search per solve, and WithSolverWorkers is a
// deprecated no-op. Version 4.0.0 removed lockstep batching: every
// simulation is one CONGEST run, and a sweep is a loop of RunReduction.
// Version 5.0.0 removed the lower-bound graph build cache (WithBuildCache,
// Lab.BuildCacheStats, Lab.NewBuildSession, …): every construction runs
// from scratch. docs/api.md maps each removed name.
//
// See examples/ for runnable programs and testdata/suite_report.golden.md
// for the regenerated paper results.
//
// # Performance
//
// The CONGEST simulator's round loop is (near-)zero-allocation: it hands
// each message straight to its receiver's Receive with the payload still
// in the sender's buffer, outboxes are recycled, an outbox that walks the
// sender's sorted neighbour list is validated by that walk, and a payload
// a node sends every neighbour is one broadcast, expanded over the
// sender's adjacency row with no outbox entry per neighbour. Reference
// algorithms encode messages into per-program scratch buffers, and the
// gossip/collect baselines rebuild the learned graph label-free via
// graphs.NewWithN/AddNodeID. Exact MaxIS solves are memoised in a
// content-addressed cache (with an optional persistent disk tier).
// Lower-bound graphs are built from scratch every time: a memo over them
// measured no faster (docs/performance.md). The experiment suite shards
// its work across whole experiments and within each experiment's sweep
// loop over one worker pool, with markdown reports byte-identical to
// sequential runs. Relative to the seed implementation this is a
// 4-4.6× wall-clock speedup and a 22-115× allocation reduction on the two
// heaviest experiments; docs/performance.md describes the architecture,
// the regression guard-rails, and how to reproduce the profiles and the
// BENCH_0001.json baseline.
package congestlb

import (
	"fmt"
	"math/rand"

	"congestlb/internal/bitvec"
	"congestlb/internal/cc"
	"congestlb/internal/congest"
	"congestlb/internal/congestalg"
	"congestlb/internal/core"
	"congestlb/internal/graphs"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis"
	"congestlb/internal/mis/cache"
)

// Graph-side types.
type (
	// Graph is a vertex-weighted undirected graph.
	Graph = graphs.Graph
	// NodeID identifies a node within a Graph.
	NodeID = graphs.NodeID
	// Edge is an undirected edge with U < V.
	Edge = graphs.Edge
	// Partition assigns nodes to players (Definition 4's V = ∪̇ V^i).
	Partition = graphs.Partition
)

// Input-side types.
type (
	// Vector is a {0,1}^k input string.
	Vector = bitvec.Vector
	// Inputs is the tuple x̄ = (x^1..x^t).
	Inputs = bitvec.Inputs
	// Matrix addresses a k²-bit string by index pairs, as the quadratic
	// family's inputs are indexed.
	Matrix = bitvec.Matrix
)

// Construction types.
type (
	// Params selects a member of the lower-bound constructions.
	Params = lbgraph.Params
	// LinearFamily is the Section 4 construction {G_x̄} (Theorem 1).
	LinearFamily = lbgraph.Linear
	// QuadraticFamily is the Section 5 construction {F_x̄} (Theorem 2).
	QuadraticFamily = lbgraph.Quadratic
	// BlowupResult is Remark 1's unweighted transform output.
	BlowupResult = lbgraph.BlowupResult
)

// Framework types.
type (
	// Family is a family of lower bound graphs (Definition 4).
	Family = core.Family
	// Instance is a built G_x̄ with partition and clique cover.
	Instance = core.Instance
	// GapPredicate holds the β / γβ thresholds of Definition 6.
	GapPredicate = core.GapPredicate
	// SimulationReport is the outcome of a Theorem 5 simulation run.
	SimulationReport = core.SimulationReport
	// SplitBestReport is the outcome of the Section 1 limitation protocol.
	SplitBestReport = core.SplitBestReport
)

// CONGEST-side types.
type (
	// CongestConfig parameterises a simulation (bandwidth, seed, hooks).
	CongestConfig = congest.Config
	// Network is a bound CONGEST simulation.
	Network = congest.Network
	// NodeProgram is the per-node state machine interface.
	NodeProgram = congest.NodeProgram
	// Message is a single CONGEST message.
	Message = congest.Message
	// NodeInfo is the static per-node knowledge.
	NodeInfo = congest.NodeInfo
	// RunResult is a finished CONGEST run with stats and outputs.
	RunResult = congest.Result
)

// Communication-complexity types.
type (
	// Blackboard is the shared-blackboard transcript with bit accounting.
	Blackboard = cc.Blackboard
	// Protocol computes promise pairwise disjointness over a blackboard.
	Protocol = cc.Protocol
)

// Solver types.
type (
	// Solution is an independent set with its weight.
	Solution = mis.Solution
	// SolverOptions configures the exact MaxIS solver (clique cover, step
	// budget, progress observer).
	SolverOptions = mis.Options
	// SolveCacheStats is a snapshot of a Lab's solve-cache counters,
	// including the persistent disk tier's.
	SolveCacheStats = cache.Stats
	// SolveSession is a per-caller view of a Lab's solve cache with exact
	// traffic attribution; see Lab.NewSolveSession.
	SolveSession = cache.Session
)

// NewLinear constructs the Section 4 family for the given parameters.
func NewLinear(p Params) (*LinearFamily, error) { return lbgraph.NewLinear(p) }

// NewQuadratic constructs the Section 5 family for the given parameters.
func NewQuadratic(p Params) (*QuadraticFamily, error) { return lbgraph.NewQuadratic(p) }

// UnweightedLinearFamily is the Remark 1 family: the linear construction
// pushed through the weighted→unweighted blow-up.
type UnweightedLinearFamily = lbgraph.UnweightedLinear

// NewUnweightedLinear constructs the Remark 1 unweighted family.
func NewUnweightedLinear(p Params) (*UnweightedLinearFamily, error) {
	return lbgraph.NewUnweightedLinear(p)
}

// FigureParams returns the ℓ=2, α=1, k=3 preset used in the paper's
// figures.
func FigureParams(t int) Params { return lbgraph.FigureParams(t) }

// ParamsForK realises the paper's asymptotic parameter schedule for a
// target k.
func ParamsForK(k, t int) (Params, error) { return lbgraph.ParamsForK(k, t) }

// SmallestValidLinear returns the smallest ℓ with a separating linear gap
// for given t and α.
func SmallestValidLinear(t, alpha int) Params { return lbgraph.SmallestValidLinear(t, alpha) }

// BuildBase constructs the paper's base graph H (Figure 1) for parameters p.
func BuildBase(p Params) (*Graph, error) { return lbgraph.BuildBase(p) }

// Blowup applies Remark 1's weighted→unweighted transform.
func Blowup(g *Graph, part *Partition) (BlowupResult, error) { return lbgraph.Blowup(g, part) }

// RandomUniquelyIntersecting samples t strings of length k sharing exactly
// one common index (the FALSE case of promise pairwise disjointness).
// density controls extra single-owner 1 bits.
func RandomUniquelyIntersecting(k, t int, density float64, rng *rand.Rand) (Inputs, int, error) {
	return bitvec.RandomUniquelyIntersecting(k, t, bitvec.GenOptions{Density: density}, rng)
}

// RandomPairwiseDisjoint samples t pairwise-disjoint strings of length k
// (the TRUE case).
func RandomPairwiseDisjoint(k, t int, density float64, rng *rand.Rand) (Inputs, error) {
	return bitvec.RandomPairwiseDisjoint(k, t, bitvec.GenOptions{Density: density}, rng)
}

// RandomPromiseInstance samples either case with the given bias toward the
// disjoint one, returning the ground truth.
func RandomPromiseInstance(k, t int, density, disjointBias float64, rng *rand.Rand) (Inputs, bool, error) {
	return bitvec.RandomPromiseInstance(k, t, bitvec.GenOptions{Density: density}, disjointBias, rng)
}

// VerifyIndependent checks a set is independent and returns its weight.
func VerifyIndependent(g *Graph, set []NodeID) (int64, error) { return mis.Verify(g, set) }

// AuditLocality mechanically checks Definition 4's locality condition on
// two input tuples differing only in player i's string.
func AuditLocality(fam Family, a, b Inputs, i int) error { return core.AuditLocality(fam, a, b, i) }

// NewCongestNetwork binds node programs to a graph under a config.
func NewCongestNetwork(g *Graph, programs []NodeProgram, cfg CongestConfig) (*Network, error) {
	return congest.NewNetwork(g, programs, cfg)
}

// LubyPrograms returns the randomised maximal-IS programs for an n-node
// network.
func LubyPrograms(n int) []NodeProgram { return congestalg.NewLubyPrograms(n) }

// RankGreedyPrograms returns the deterministic weighted-greedy programs.
func RankGreedyPrograms(n int) []NodeProgram { return congestalg.NewRankGreedyPrograms(n) }

// GossipExactPrograms returns the learn-everything-and-solve programs. The
// n programs solve on one fresh cache of their own; a Lab's
// NewSolveSession with core.GossipProgramsWith puts them on the Lab's.
func GossipExactPrograms(n int) []NodeProgram { return congestalg.NewGossipExactPrograms(n) }

// LeaderBFSPrograms returns the min-ID leader election + BFS tree programs.
func LeaderBFSPrograms(n int) []NodeProgram { return congestalg.NewLeaderBFSPrograms(n) }

// CollectSolvePrograms returns the BFS-tree convergecast exact-MaxIS
// programs (the textbook universal O(n²)-round algorithm).
func CollectSolvePrograms(n int) []NodeProgram { return congestalg.NewCollectSolvePrograms(n) }

// BFSResult is the per-node output of LeaderBFSPrograms.
type BFSResult = congestalg.BFSResult

// BFSResults extracts the typed outputs of a LeaderBFS run.
func BFSResults(result RunResult) ([]BFSResult, error) { return congestalg.BFSResults(result) }

// Tracer collects per-round traffic statistics; pass its Hook in a
// CongestConfig.
type Tracer = congest.Tracer

// MembershipSet extracts the chosen set from a Luby/RankGreedy run.
func MembershipSet(result RunResult) []NodeID { return congestalg.MembershipSet(result) }

// PromiseDisjointnessLowerBound is Theorem 3's Ω(k/(t log t)) formula,
// evaluated with constant 1.
func PromiseDisjointnessLowerBound(k, t int) float64 { return cc.LowerBoundBits(k, t) }

// RoundLowerBound is Corollary 1: CC_f(k,t)/(|cut|·log₂ n).
func RoundLowerBound(k, t, cut, n int) float64 { return core.RoundLowerBound(k, t, cut, n) }

// Theorem1Bound evaluates Ω(n/log³n) with constant 1.
func Theorem1Bound(n float64) float64 { return core.Theorem1Bound(n) }

// Theorem2Bound evaluates Ω(n²/log³n) with constant 1.
func Theorem2Bound(n float64) float64 { return core.Theorem2Bound(n) }

// PlayersForEpsilon returns the paper's t for a target ε (Lemmas 2-3).
func PlayersForEpsilon(epsilon float64, quadratic bool) int {
	return core.PlayersForEpsilon(epsilon, quadratic)
}

// Version identifies the library release.
const Version = "5.0.0"

// BuildInstance is a convenience that constructs and validates an instance
// for a family and input, with a descriptive error context. It builds from
// scratch.
func BuildInstance(fam Family, in Inputs) (Instance, error) {
	inst, err := fam.Build(in)
	if err != nil {
		return Instance{}, fmt.Errorf("congestlb: building %s: %w", fam.Name(), err)
	}
	if err := inst.Graph.Validate(); err != nil {
		return Instance{}, fmt.Errorf("congestlb: built graph invalid: %w", err)
	}
	return inst, nil
}
