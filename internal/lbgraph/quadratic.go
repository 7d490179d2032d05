package lbgraph

import (
	"fmt"

	"congestlb/internal/bitvec"
	"congestlb/internal/code"
	"congestlb/internal/core"
	"congestlb/internal/graphs"
)

// Quadratic is the Section 5 family {F_x̄}: two copies G¹, G² of the fixed
// linear construction, with player i owning V^i = V^(i,1) ∪ V^(i,2) — its
// copy-pair of cliques and code gadgets. All A-clique nodes have fixed
// weight ℓ and all code nodes weight 1; the input no longer selects
// weights but edges: player i's string x^i ∈ {0,1}^(k²) places an edge
// between v^(i,1)_m1 and v^(i,2)_m2 exactly when x^i_(m1,m2) = 0.
//
// Because both endpoints of every input edge belong to player i, the
// strings can be k² bits long while the cut stays polylogarithmic — that
// is what upgrades the linear lower bound to a near-quadratic one.
type Quadratic struct {
	p     Params
	opts  QuadraticOptions
	rs    *code.ReedSolomon
	words [][]int
	// k, q and perCopy fix the node layout: p.K(), p.Q() and
	// p.NodesPerCopy(), computed once (Q runs a primality search).
	k, q, perCopy int
}

var _ core.Family = (*Quadratic)(nil)

// QuadraticOptions alter the construction for ablation studies. The zero
// value is the faithful paper construction.
type QuadraticOptions struct {
	// InvertInputEdges places the input edge on 1 bits instead of 0 bits.
	// A uniquely-intersecting input then wires v^(i,1)_m1 to v^(i,2)_m2 at
	// the common pair, destroying the Claim 6 witness: the intersecting
	// case loses its large independent set and the gap inverts.
	InvertInputEdges bool
	// OmitInputEdges drops the input edges entirely, decoupling F from x̄:
	// both promise cases then share one optimum.
	OmitInputEdges bool
}

// NewQuadratic constructs the faithful family for the given parameters.
func NewQuadratic(p Params) (*Quadratic, error) {
	return NewQuadraticVariant(p, QuadraticOptions{})
}

// NewQuadraticVariant constructs the family with ablation options applied.
func NewQuadraticVariant(p Params, opts QuadraticOptions) (*Quadratic, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k, q := p.K(), p.Q()
	rs, err := code.NewReedSolomon(p.Alpha, p.M(), uint64(q), k)
	if err != nil {
		return nil, fmt.Errorf("lbgraph: code: %w", err)
	}
	words := make([][]int, k)
	for m := range words {
		w, err := rs.Encode(m)
		if err != nil {
			return nil, fmt.Errorf("lbgraph: encode %d: %w", m, err)
		}
		words[m] = w
	}
	return &Quadratic{p: p, opts: opts, rs: rs, words: words, k: k, q: q, perCopy: k + p.M()*q}, nil
}

// Params returns the family's parameters.
func (f *Quadratic) Params() Params { return f.p }

// Name implements core.Family.
func (f *Quadratic) Name() string {
	name := fmt.Sprintf("quadratic[%s]", f.p)
	if f.opts.InvertInputEdges {
		name += "+invertedInputs"
	}
	if f.opts.OmitInputEdges {
		name += "+noInputs"
	}
	return name
}

// Players implements core.Family.
func (f *Quadratic) Players() int { return f.p.T }

// InputBits implements core.Family: strings have length k².
func (f *Quadratic) InputBits() int { return f.k * f.k }

// Gap implements core.Family with the Lemma 3 thresholds.
func (f *Quadratic) Gap() core.GapPredicate {
	return core.GapPredicate{Beta: f.p.QuadraticBeta(), SmallMax: f.p.QuadraticSmallMax()}
}

// copyOffset returns the first node ID of copy (i, b), b ∈ {0, 1}
// standing for the paper's superscripts (i, 1) and (i, 2). Player i owns
// the two consecutive copies 2i and 2i+1, keeping V^i contiguous.
func (f *Quadratic) copyOffset(i, b int) int {
	return (2*i + b) * f.perCopy
}

// ANode returns v^(i,b)_m.
func (f *Quadratic) ANode(i, b, m int) graphs.NodeID {
	return f.copyOffset(i, b) + m
}

// SigmaNode returns σ^(i,b)_(h,r), r ∈ [0,q).
func (f *Quadratic) SigmaNode(i, b, h, r int) graphs.NodeID {
	return f.copyOffset(i, b) + f.k + h*f.q + r
}

// CodeNodes returns Code^(i,b)_m.
func (f *Quadratic) CodeNodes(i, b, m int) []graphs.NodeID {
	out := make([]graphs.NodeID, f.p.M())
	for h, sym := range f.words[m] {
		out[h] = f.SigmaNode(i, b, h, sym-1)
	}
	return out
}

// BuildFixed constructs the fixed graph F: all structure except the
// input edges. Weights are already final (they do not depend on x̄).
func (f *Quadratic) BuildFixed() (core.Instance, error) {
	p := f.p
	k, m, q, t := f.k, p.M(), f.q, p.T
	n := 2 * t * f.perCopy
	g := graphs.New(n)
	part, err := graphs.NewPartition(n, t)
	if err != nil {
		return core.Instance{}, err
	}
	var cover [][]graphs.NodeID

	for i := 0; i < t; i++ {
		for b := 0; b < 2; b++ {
			aNodes := make([]graphs.NodeID, k)
			for mm := 0; mm < k; mm++ {
				id, err := g.AddNode(fmt.Sprintf("v[i=%d,b=%d,m=%d]", i+1, b+1, mm+1), int64(p.Ell))
				if err != nil {
					return core.Instance{}, err
				}
				if id != f.ANode(i, b, mm) {
					return core.Instance{}, fmt.Errorf("lbgraph: node layout drift at v[%d,%d,%d]", i, b, mm)
				}
				aNodes[mm] = id
				part.MustAssign(id, i)
			}
			for h := 0; h < m; h++ {
				for r := 0; r < q; r++ {
					id, err := g.AddNode(fmt.Sprintf("sigma[i=%d,b=%d,h=%d,r=%d]", i+1, b+1, h+1, r+1), 1)
					if err != nil {
						return core.Instance{}, err
					}
					if id != f.SigmaNode(i, b, h, r) {
						return core.Instance{}, fmt.Errorf("lbgraph: node layout drift at sigma[%d,%d,%d,%d]", i, b, h, r)
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
					cNodes[r] = f.SigmaNode(i, b, h, r)
				}
				if err := g.AddClique(cNodes); err != nil {
					return core.Instance{}, err
				}
				cover = append(cover, cNodes)
			}
			for mm := 0; mm < k; mm++ {
				word := f.words[mm]
				for h := 0; h < m; h++ {
					for r := 0; r < q; r++ {
						if r+1 == word[h] {
							continue
						}
						if err := g.AddEdge(f.ANode(i, b, mm), f.SigmaNode(i, b, h, r)); err != nil {
							return core.Instance{}, err
						}
					}
				}
			}
		}
	}

	// Inter-player wiring inside each of G¹ and G²: complete bipartite
	// minus perfect matching between C^(i,b)_h and C^(j,b)_h.
	for b := 0; b < 2; b++ {
		for i := 0; i < t; i++ {
			for j := i + 1; j < t; j++ {
				for h := 0; h < m; h++ {
					for r := 0; r < q; r++ {
						for s := 0; s < q; s++ {
							if r == s {
								continue
							}
							if err := g.AddEdge(f.SigmaNode(i, b, h, r), f.SigmaNode(j, b, h, s)); err != nil {
								return core.Instance{}, err
							}
						}
					}
				}
			}
		}
	}
	return core.Instance{Graph: g, Partition: part, CliqueCover: cover}, nil
}

// Build implements core.Family: the fixed graph plus the input edges
// {v^(i,1)_m1, v^(i,2)_m2} for every 0 bit x^i_(m1,m2).
func (f *Quadratic) Build(in bitvec.Inputs) (core.Instance, error) {
	if err := f.checkInputs(in); err != nil {
		return core.Instance{}, err
	}
	inst, err := f.BuildFixed()
	if err != nil {
		return core.Instance{}, err
	}
	if f.opts.OmitInputEdges {
		return inst, nil
	}
	k := f.k
	for i := 0; i < f.p.T; i++ {
		mat, err := bitvec.MatrixFromVector(in[i], k)
		if err != nil {
			return core.Instance{}, err
		}
		for m1 := 0; m1 < k; m1++ {
			for m2 := 0; m2 < k; m2++ {
				if mat.Get(m1, m2) == f.opts.InvertInputEdges {
					if err := inst.Graph.AddEdge(f.ANode(i, 0, m1), f.ANode(i, 1, m2)); err != nil {
						return core.Instance{}, err
					}
				}
			}
		}
	}
	return inst, nil
}

func (f *Quadratic) checkInputs(in bitvec.Inputs) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Players() != f.p.T {
		return fmt.Errorf("lbgraph: %d inputs for t=%d players", in.Players(), f.p.T)
	}
	if in.Len() != f.InputBits() {
		return fmt.Errorf("lbgraph: inputs of length %d, want k²=%d", in.Len(), f.InputBits())
	}
	return nil
}

// WitnessLarge implements core.Family: for a uniquely-intersecting input
// with common pair (m1, m2) it returns the Claim 6 independent set
// ∪_i {v^(i,1)_m1} ∪ Code^(i,1)_m1 ∪ {v^(i,2)_m2} ∪ Code^(i,2)_m2 of
// weight t(4ℓ+2α) = Beta.
func (f *Quadratic) WitnessLarge(in bitvec.Inputs, inst core.Instance) ([]graphs.NodeID, error) {
	if err := f.checkInputs(in); err != nil {
		return nil, err
	}
	flat, ok := in.UniqueIntersection()
	if !ok {
		return nil, fmt.Errorf("lbgraph: no common index pair; witness requires a uniquely-intersecting input")
	}
	k := f.k
	m1, m2 := flat/k, flat%k
	var set []graphs.NodeID
	for i := 0; i < f.p.T; i++ {
		set = append(set, f.ANode(i, 0, m1))
		set = append(set, f.CodeNodes(i, 0, m1)...)
		set = append(set, f.ANode(i, 1, m2))
		set = append(set, f.CodeNodes(i, 1, m2)...)
	}
	return set, nil
}
