package lbgraph

import (
	"fmt"

	"congestlb/internal/bitvec"
	"congestlb/internal/code"
	"congestlb/internal/core"
	"congestlb/internal/graphs"
)

// Linear is the Section 4 family {G_x̄}: t copies H^1..H^t of the base
// graph H, where H consists of a k-clique A and the code gadget — M = ℓ+α
// cliques C_1..C_M of q nodes each. Node v_m of A is adjacent to all code
// nodes except Code_m (the nodes spelling codeword C(m)), and for i ≠ j
// the cliques C^i_h and C^j_h are joined by a complete bipartite graph
// minus the natural perfect matching. Given inputs x̄, node v^i_m gets
// weight ℓ when x^i_m = 1 and weight 1 otherwise; all code nodes have
// weight 1.
type Linear struct {
	p     Params
	opts  LinearOptions
	words [][]int // words[m] = codeword of message m, symbols in [1,q]
	// k, q and perCopy fix the node layout: p.K(), p.Q() and
	// p.NodesPerCopy(), computed once (Q runs a primality search).
	k, q, perCopy int
}

var _ core.Family = (*Linear)(nil)

// LinearOptions alter the construction for ablation studies. The zero
// value is the faithful paper construction.
type LinearOptions struct {
	// Code overrides the Reed-Solomon code-mapping. It must produce
	// length-M codewords with symbols in [1, q] and admit at least k
	// messages. Plugging in a low-distance code (e.g. code.FirstSymbol)
	// breaks Property 2 and, with it, the disjoint-case upper bound.
	Code code.Code
	// OmitInterCopyWiring drops the C^i_h ↔ C^j_h connections between
	// copies. Without them each player's Property 1 set becomes globally
	// independent even on disjoint inputs, destroying the gap.
	OmitInterCopyWiring bool
	// UniformWeights ignores x̄ and leaves every node at weight 1. The
	// two promise cases then have identical optima: the weights are what
	// couple the graph to the inputs.
	UniformWeights bool
}

// NewLinear constructs the faithful family for the given parameters,
// building the underlying Reed-Solomon code-mapping.
func NewLinear(p Params) (*Linear, error) {
	return NewLinearVariant(p, LinearOptions{})
}

// NewLinearVariant constructs the family with ablation options applied.
func NewLinearVariant(p Params, opts LinearOptions) (*Linear, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k, q := p.K(), p.Q()
	cm := opts.Code
	if cm == nil {
		rs, err := code.NewReedSolomon(p.Alpha, p.M(), uint64(q), k)
		if err != nil {
			return nil, fmt.Errorf("lbgraph: code: %w", err)
		}
		cm = rs
	}
	if _, cmM, _, cmQ := cm.Params(); cmM != p.M() || cmQ > q {
		return nil, fmt.Errorf("lbgraph: code has (M=%d,q=%d), construction needs (M=%d,q≤%d)",
			cmM, cmQ, p.M(), q)
	}
	if cm.NumMessages() < k {
		return nil, fmt.Errorf("lbgraph: code admits %d messages, need k=%d", cm.NumMessages(), k)
	}
	words := make([][]int, k)
	for m := range words {
		w, err := cm.Encode(m)
		if err != nil {
			return nil, fmt.Errorf("lbgraph: encode %d: %w", m, err)
		}
		for h, sym := range w {
			if sym < 1 || sym > q {
				return nil, fmt.Errorf("lbgraph: codeword %d has symbol %d at position %d outside [1,%d]",
					m, sym, h, q)
			}
		}
		words[m] = w
	}
	return &Linear{p: p, opts: opts, words: words, k: k, q: q, perCopy: k + p.M()*q}, nil
}

// Params returns the family's parameters.
func (l *Linear) Params() Params { return l.p }

// Codeword returns the codeword of message m (1-based symbols), shared
// storage — callers must not mutate it.
func (l *Linear) Codeword(m int) []int { return l.words[m] }

// Name implements core.Family.
func (l *Linear) Name() string {
	name := fmt.Sprintf("linear[%s]", l.p)
	if l.opts.Code != nil {
		name += "+customCode"
	}
	if l.opts.OmitInterCopyWiring {
		name += "+noWiring"
	}
	if l.opts.UniformWeights {
		name += "+uniformWeights"
	}
	return name
}

// Players implements core.Family.
func (l *Linear) Players() int { return l.p.T }

// InputBits implements core.Family: the strings have length k.
func (l *Linear) InputBits() int { return l.k }

// Gap implements core.Family with the Lemma 2 thresholds.
func (l *Linear) Gap() core.GapPredicate {
	return core.GapPredicate{Beta: l.p.LinearBeta(), SmallMax: l.p.LinearSmallMax()}
}

// ANode returns the node ID of v^i_m (0-based i ∈ [0,t), m ∈ [0,k)).
func (l *Linear) ANode(i, m int) graphs.NodeID {
	return i*l.perCopy + m
}

// SigmaNode returns the node ID of σ^i_(h,r): position h ∈ [0,M), symbol
// index r ∈ [0,q) (the paper's symbol r+1).
func (l *Linear) SigmaNode(i, h, r int) graphs.NodeID {
	return i*l.perCopy + l.k + h*l.q + r
}

// CodeNodes returns Code^i_m — the M nodes spelling codeword C(m) in copy
// i, one per code-gadget clique.
func (l *Linear) CodeNodes(i, m int) []graphs.NodeID {
	out := make([]graphs.NodeID, l.p.M())
	for h, sym := range l.words[m] {
		out[h] = l.SigmaNode(i, h, sym-1)
	}
	return out
}

// BuildFixed constructs the fixed graph G (all weights 1) with its player
// partition and natural clique cover. The weights of G_x̄ are applied on
// top by Build.
func (l *Linear) BuildFixed() (core.Instance, error) {
	p := l.p
	k, m, q, t := l.k, p.M(), l.q, p.T
	g := graphs.New(t * l.perCopy)
	part, err := graphs.NewPartition(t*l.perCopy, t)
	if err != nil {
		return core.Instance{}, err
	}
	var cover [][]graphs.NodeID

	for i := 0; i < t; i++ {
		// Clique A^i = {v^i_1..v^i_k}.
		aNodes := make([]graphs.NodeID, k)
		for mm := 0; mm < k; mm++ {
			id, err := g.AddNode(fmt.Sprintf("v[i=%d,m=%d]", i+1, mm+1), 1)
			if err != nil {
				return core.Instance{}, err
			}
			if id != l.ANode(i, mm) {
				return core.Instance{}, fmt.Errorf("lbgraph: node layout drift at v[%d,%d]", i, mm)
			}
			aNodes[mm] = id
			part.MustAssign(id, i)
		}
		// Code gadget cliques C^i_h = {σ^i_(h,1)..σ^i_(h,q)}.
		for h := 0; h < m; h++ {
			for r := 0; r < q; r++ {
				id, err := g.AddNode(fmt.Sprintf("sigma[i=%d,h=%d,r=%d]", i+1, h+1, r+1), 1)
				if err != nil {
					return core.Instance{}, err
				}
				if id != l.SigmaNode(i, h, r) {
					return core.Instance{}, fmt.Errorf("lbgraph: node layout drift at sigma[%d,%d,%d]", i, h, r)
				}
				part.MustAssign(id, i)
			}
		}
		if err := g.AddClique(aNodes); err != nil {
			return core.Instance{}, err
		}
		cover = append(cover, aNodes)
		for h := 0; h < m; h++ {
			cNodes := make([]graphs.NodeID, q)
			for r := 0; r < q; r++ {
				cNodes[r] = l.SigmaNode(i, h, r)
			}
			if err := g.AddClique(cNodes); err != nil {
				return core.Instance{}, err
			}
			cover = append(cover, cNodes)
		}
		// v^i_m is adjacent to Code^i \ Code^i_m.
		for mm := 0; mm < k; mm++ {
			word := l.words[mm]
			for h := 0; h < m; h++ {
				for r := 0; r < q; r++ {
					if r+1 == word[h] {
						continue // this is Code^i_mm's node at position h
					}
					if err := g.AddEdge(l.ANode(i, mm), l.SigmaNode(i, h, r)); err != nil {
						return core.Instance{}, err
					}
				}
			}
		}
	}

	// Inter-copy wiring: complete bipartite minus perfect matching between
	// C^i_h and C^j_h for all i < j and all h.
	if l.opts.OmitInterCopyWiring {
		return core.Instance{Graph: g, Partition: part, CliqueCover: cover}, nil
	}
	for i := 0; i < t; i++ {
		for j := i + 1; j < t; j++ {
			for h := 0; h < m; h++ {
				for r := 0; r < q; r++ {
					for s := 0; s < q; s++ {
						if r == s {
							continue
						}
						if err := g.AddEdge(l.SigmaNode(i, h, r), l.SigmaNode(j, h, s)); err != nil {
							return core.Instance{}, err
						}
					}
				}
			}
		}
	}
	return core.Instance{Graph: g, Partition: part, CliqueCover: cover}, nil
}

// Build implements core.Family: the fixed graph with the x̄-dependent
// weights w(v^i_m) = ℓ if x^i_m = 1 else 1.
func (l *Linear) Build(in bitvec.Inputs) (core.Instance, error) {
	if err := l.checkInputs(in); err != nil {
		return core.Instance{}, err
	}
	inst, err := l.BuildFixed()
	if err != nil {
		return core.Instance{}, err
	}
	if l.opts.UniformWeights {
		return inst, nil
	}
	for i := 0; i < l.p.T; i++ {
		for m := 0; m < l.k; m++ {
			if in[i].Get(m) {
				inst.Graph.SetWeight(l.ANode(i, m), int64(l.p.Ell))
			}
		}
	}
	return inst, nil
}

func (l *Linear) checkInputs(in bitvec.Inputs) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Players() != l.p.T {
		return fmt.Errorf("lbgraph: %d inputs for t=%d players", in.Players(), l.p.T)
	}
	if in.Len() != l.InputBits() {
		return fmt.Errorf("lbgraph: inputs of length %d, want k=%d", in.Len(), l.InputBits())
	}
	return nil
}

// WitnessLarge implements core.Family: for a uniquely-intersecting input
// with common index m it returns the Property 1 independent set
// (∪_i Code^i_m) ∪ {v^i_m | i ∈ [t]}, whose weight is t(2ℓ+α) = Beta.
func (l *Linear) WitnessLarge(in bitvec.Inputs, inst core.Instance) ([]graphs.NodeID, error) {
	if err := l.checkInputs(in); err != nil {
		return nil, err
	}
	m, ok := in.UniqueIntersection()
	if !ok {
		return nil, fmt.Errorf("lbgraph: no common index; witness requires a uniquely-intersecting input")
	}
	var set []graphs.NodeID
	for i := 0; i < l.p.T; i++ {
		set = append(set, l.ANode(i, m))
		set = append(set, l.CodeNodes(i, m)...)
	}
	return set, nil
}

// BuildBase constructs a single copy of the base graph H with unit weights
// — the object of the paper's Figure 1. It is the t=1 slice of the fixed
// construction.
func BuildBase(p Params) (*graphs.Graph, error) {
	single := p
	single.T = 2 // NewLinear requires t ≥ 2; we keep only copy 0 below.
	l, err := NewLinear(single)
	if err != nil {
		return nil, err
	}
	inst, err := l.BuildFixed()
	if err != nil {
		return nil, err
	}
	nodes := make([]graphs.NodeID, l.perCopy)
	for u := range nodes {
		nodes[u] = u // copy 0 occupies the first perCopy IDs
	}
	base, _, err := inst.Graph.InducedSubgraph(nodes)
	if err != nil {
		return nil, err
	}
	return base, nil
}
