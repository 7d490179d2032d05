package serve

import (
	"fmt"

	"congestlb"
	"congestlb/internal/bitvec"
	"congestlb/internal/graphs"
)

// jobOptions are the request fields every POST endpoint shares.
type jobOptions struct {
	// DeadlineMS is the caller's wall-clock budget; the tenant quota's
	// MaxDeadlineMS caps it (and supplies it when absent). The effective
	// deadline becomes the job's context deadline, so an expired budget
	// cancels the work cooperatively and a solve returns its incumbent
	// with cancelled set.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Async makes the endpoint return 202 with the job id immediately;
	// poll GET /v1/jobs/{id} or stream /v1/jobs/{id}/stream.
	Async bool `json:"async,omitempty"`
}

// GraphSpec is the wire form of a vertex-weighted undirected graph.
type GraphSpec struct {
	// N is the node count; node ids are 0..n-1.
	N int `json:"n"`
	// Weights are per-node weights (len n); omitted means all-1.
	Weights []int64 `json:"weights,omitempty"`
	// Edges are undirected [u, v] pairs.
	Edges [][2]int `json:"edges"`
}

// graph materialises the spec, validating as it goes. The memory check
// (solveBytes against budget) runs before anything of the graph's size is
// allocated.
func (s GraphSpec) graph(budget int64) (*congestlb.Graph, error) {
	if s.N <= 0 {
		return nil, fmt.Errorf("graph: n must be positive, got %d", s.N)
	}
	if err := checkSolveBytes(int64(s.N), budget); err != nil {
		return nil, err
	}
	if s.Weights != nil && len(s.Weights) != s.N {
		return nil, fmt.Errorf("graph: %d weights for %d nodes", len(s.Weights), s.N)
	}
	g := graphs.New(s.N)
	for v := 0; v < s.N; v++ {
		w := int64(1)
		if s.Weights != nil {
			w = s.Weights[v]
		}
		if w < 0 {
			return nil, fmt.Errorf("graph: node %d has negative weight %d", v, w)
		}
		g.AddNodeID(w)
	}
	for i, e := range s.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("graph: edge %d [%d,%d]: %w", i, e[0], e[1], err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return g, nil
}

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	jobOptions
	Graph GraphSpec `json:"graph"`
	// MaxSteps bounds the branch-and-bound search (0 = the solver
	// default); exhaustion returns the incumbent with optimal=false.
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// SolveResult is the solve job's result payload.
type SolveResult struct {
	Weight  int64 `json:"weight"`
	Set     []int `json:"set,omitempty"`
	Optimal bool  `json:"optimal"`
	Steps   int64 `json:"steps"`
	// Cancelled marks a deadline/cancel-cut solve: Weight/Set are the
	// best incumbent found, a valid independent set but possibly not
	// optimal.
	Cancelled bool `json:"cancelled,omitempty"`
	// Cache is this request's exact cache attribution (a per-session
	// view — hits/misses/shared_hits booked on behalf of this call
	// only).
	Cache congestlb.SolveCacheStats `json:"cache"`
}

// ParamsSpec is the wire form of the lower-bound construction parameters.
type ParamsSpec struct {
	T     int `json:"t"`
	Alpha int `json:"alpha"`
	Ell   int `json:"ell"`
}

// CongestSpec is the wire form of the CONGEST model configuration.
// BandwidthBits and MaxRounds of 0 select the engine's defaults.
// Parallel and Workers are accepted and ignored.
type CongestSpec struct {
	BandwidthBits int64 `json:"bandwidth_bits,omitempty"`
	MaxRounds     int   `json:"max_rounds,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	Parallel      bool  `json:"parallel,omitempty"`
	Workers       int   `json:"workers,omitempty"`
}

// validate refuses the values the engine could only fail on after
// admission: a negative bandwidth or round limit.
func (c CongestSpec) validate() error {
	if c.BandwidthBits < 0 {
		return fmt.Errorf("config.bandwidth_bits: %d, want >= 0 (0 = default)", c.BandwidthBits)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("config.max_rounds: %d, want >= 0 (0 = default)", c.MaxRounds)
	}
	return nil
}

// ReduceRequest is the POST /v1/reduce body.
type ReduceRequest struct {
	jobOptions
	// Family selects the construction: "linear", "quadratic" or
	// "unweighted".
	Family string     `json:"family"`
	Params ParamsSpec `json:"params"`
	// Inputs are the players' input vectors as '0'/'1' strings, one per
	// player, each family.InputBits() long.
	Inputs []string    `json:"inputs"`
	Config CongestSpec `json:"config"`
	// VerifyGap additionally audits the gap predicate against an exact
	// solve and reports the optimum.
	VerifyGap bool `json:"verify_gap,omitempty"`
}

// ReduceResult is the reduce job's result payload: the simulation
// report (its fields are the payload's keys) plus the two checks derived
// from it, and the audited optimum with verify_gap.
type ReduceResult struct {
	congestlb.SimulationReport
	// AccountingHolds is the report's AccountingHolds(): BlackboardBits
	// ≤ AccountingBound, the Theorem 5 inequality.
	AccountingHolds bool `json:"accounting_holds"`
	// Correct is the report's Correct(): Decision == Truth.
	Correct bool `json:"correct"`
	// GapOpt is the audited optimum; present only with verify_gap.
	GapOpt *int64 `json:"gap_opt,omitempty"`
}

// ExperimentsRequest is the POST /v1/experiments body.
type ExperimentsRequest struct {
	jobOptions
	// IDs selects registered experiments (empty = all).
	IDs []string `json:"ids,omitempty"`
	// Report includes the combined markdown report in the result.
	Report bool `json:"report,omitempty"`
}

// ExperimentsResult is the experiments job's result payload.
type ExperimentsResult struct {
	Envelope congestlb.ExperimentEnvelope `json:"envelope"`
	Report   string                       `json:"report,omitempty"`
}

// familyFrom resolves the wire family name and parameters. It validates
// the parameters and checks reduceBytes against budget before the family,
// whose codeword table alone is k·M words, is built.
func familyFrom(name string, p ParamsSpec, budget int64) (congestlb.Family, error) {
	params := congestlb.Params{T: p.T, Alpha: p.Alpha, Ell: p.Ell}
	var build func() (congestlb.Family, error)
	switch name {
	case "linear":
		build = func() (congestlb.Family, error) { return congestlb.NewLinear(params) }
	case "quadratic":
		build = func() (congestlb.Family, error) { return congestlb.NewQuadratic(params) }
	case "unweighted", "unweighted_linear":
		build = func() (congestlb.Family, error) { return congestlb.NewUnweightedLinear(params) }
	default:
		return nil, fmt.Errorf("family: unknown %q (want linear, quadratic or unweighted)", name)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := checkReduceBytes(name, params, budget); err != nil {
		return nil, err
	}
	return build()
}

// parseInputs decodes '0'/'1' strings into input vectors, one per player
// of fam, each fam.InputBits() long. The strings are parsed directly
// (never round-tripped through Vector.String, which truncates long
// vectors for display).
func parseInputs(fam congestlb.Family, raw []string) (congestlb.Inputs, error) {
	if len(raw) != fam.Players() {
		return nil, fmt.Errorf("inputs: %d given, want one per player (%d)", len(raw), fam.Players())
	}
	bits := fam.InputBits()
	in := make(congestlb.Inputs, len(raw))
	for i, s := range raw {
		if len(s) != bits {
			return nil, fmt.Errorf("inputs[%d]: %d bits, want %d", i, len(s), bits)
		}
		v := bitvec.New(len(s))
		for j := 0; j < len(s); j++ {
			switch s[j] {
			case '1':
				v.Set(j)
			case '0':
			default:
				return nil, fmt.Errorf("inputs[%d]: byte %d is %q, want '0' or '1'", i, j, s[j])
			}
		}
		in[i] = v
	}
	return in, nil
}
