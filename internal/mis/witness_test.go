package mis_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/graphs"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis"
	"congestlb/internal/obs"
)

// Witness preservation: Exact's branching rule (heaviest candidate, lowest
// ID among ties; include before exclude) fixes the DFS order, and its
// clique bound only prunes subtrees that cannot strictly beat the
// incumbent. So the first node in DFS preorder that reaches each new
// incumbent weight is never pruned, and Exact must reproduce — witness,
// weight and improvement sequence — a plain DFS with the same branching
// rule and the trivial bound Σ w(P), while exploring no more nodes. The
// test lives outside package mis because lbgraph depends on it.

// reference is that plain DFS, written over node lists rather than the
// solver's rank bitsets so it shares no code with the engine under test.
type reference struct {
	g            *graphs.Graph
	best         int64
	bestSet      []graphs.NodeID
	improvements []int64 // the greedy seed, then every strict improvement
	steps        int64
	path         []graphs.NodeID
}

func referenceSolve(g *graphs.Graph) *reference {
	seed := mis.SeedIncumbent(g)
	r := &reference{g: g, best: seed.Weight, bestSet: seed.Set, improvements: []int64{seed.Weight}}
	p := make([]graphs.NodeID, g.N())
	for v := range p {
		p[v] = v
	}
	r.search(p, 0)
	return r
}

func (r *reference) search(p []graphs.NodeID, cur int64) {
	r.steps++
	if cur > r.best {
		r.best = cur
		r.bestSet = append([]graphs.NodeID(nil), r.path...)
		sort.Ints(r.bestSet)
		r.improvements = append(r.improvements, cur)
	}
	if len(p) == 0 {
		return
	}
	v, total := p[0], int64(0)
	for _, u := range p {
		total += r.g.Weight(u)
		if wu, wv := r.g.Weight(u), r.g.Weight(v); wu > wv || (wu == wv && u < v) {
			v = u
		}
	}
	if cur+total <= r.best {
		return
	}
	var in, out []graphs.NodeID
	for _, u := range p {
		if u == v {
			continue
		}
		out = append(out, u)
		if !r.g.HasEdge(u, v) {
			in = append(in, u)
		}
	}
	r.path = append(r.path, v)
	r.search(in, cur+r.g.Weight(v))
	r.path = r.path[:len(r.path)-1]
	r.search(out, cur)
}

// weightLog records the Progress weight sequence of one solve.
type weightLog struct {
	mu      sync.Mutex
	weights []int64
}

func (l *weightLog) OnIncumbent(ev obs.ProgressEvent) {
	l.mu.Lock()
	l.weights = append(l.weights, ev.Weight)
	l.mu.Unlock()
}

// witnessCase is one generated instance, with its natural cover if any.
type witnessCase struct {
	name  string
	g     *graphs.Graph
	cover [][]graphs.NodeID
}

// witnessCases draws seeded G(n, p) graphs — n in [16, 40] at p 0.1, 0.3
// and 0.5, plus n in [48, 60] at p 0.3 and 0.5 — and linear t=2
// lower-bound instances with their natural cover.
func witnessCases(t *testing.T) []witnessCase {
	var cases []witnessCase
	rng := rand.New(rand.NewSource(2024))
	sizes := []struct {
		lo, span int
		probs    []float64
	}{
		{16, 25, []float64{0.1, 0.3, 0.5}},
		{48, 13, []float64{0.3, 0.5}},
	}
	for _, size := range sizes {
		for _, prob := range size.probs {
			for trial := 0; trial < 12; trial++ {
				n := size.lo + rng.Intn(size.span)
				g := graphs.New(n)
				for i := 0; i < n; i++ {
					g.AddNodeID(1 + rng.Int63n(9))
				}
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if rng.Float64() < prob {
							g.MustAddEdge(u, v)
						}
					}
				}
				cases = append(cases, witnessCase{name: fmt.Sprintf("G(%d,%.1f)#%d", n, prob, trial), g: g})
			}
		}
	}
	params := lbgraph.Params{T: 2, Alpha: 1, Ell: 3}
	l, err := lbgraph.NewLinear(params)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		var in bitvec.Inputs
		if trial%2 == 0 {
			in, _, err = bitvec.RandomUniquelyIntersecting(params.K(), params.T, bitvec.GenOptions{Density: 0.4}, rng)
		} else {
			in, err = bitvec.RandomPairwiseDisjoint(params.K(), params.T, bitvec.GenOptions{Density: 0.4}, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		inst, err := l.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, witnessCase{name: fmt.Sprintf("linear t=2 #%d", trial), g: inst.Graph, cover: inst.CliqueCover})
	}
	return cases
}

func TestExactPreservesReferenceWitness(t *testing.T) {
	improved := 0
	for _, tc := range witnessCases(t) {
		ref := referenceSolve(tc.g)
		if len(ref.improvements) > 1 {
			improved++
		}
		log := &weightLog{}
		sol, err := mis.Exact(tc.g, mis.Options{CliqueCover: tc.cover, Progress: log})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sol.Weight != ref.best || !reflect.DeepEqual(sol.Set, ref.bestSet) {
			t.Fatalf("%s: got %v (w=%d), reference %v (w=%d)",
				tc.name, sol.Set, sol.Weight, ref.bestSet, ref.best)
		}
		if !reflect.DeepEqual(log.weights, ref.improvements) {
			t.Fatalf("%s: progress weights %v, reference improvements %v", tc.name, log.weights, ref.improvements)
		}
		if sol.Steps > ref.steps {
			t.Fatalf("%s: %d steps, more than the trivial-bound reference's %d", tc.name, sol.Steps, ref.steps)
		}
	}
	// Only a search that improves on the greedy seed compares witnesses the
	// DFS order chose.
	if improved == 0 {
		t.Fatal("no case improved on the greedy seed; the property went unexercised")
	}
}
