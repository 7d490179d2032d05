// Package graphs provides the vertex-weighted undirected graphs on which
// every construction in this library lives, together with the player
// partition machinery of Definition 4 in Efron, Grossman and Khoury
// (PODC 2020): a partition V = V¹ ∪̇ ... ∪̇ V^t of the nodes among t
// players, and the induced cut cut(G) = E \ ∪_i (V^i × V^i) whose size
// drives every round lower bound.
//
// Graphs are dense-friendly: adjacency is stored as a bitset matrix, which
// the exact MaxIS solver and the clique-heavy lower-bound constructions
// both exploit. Node identifiers are dense ints assigned by AddNode.
package graphs

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

const wordBits = 64

// NodeID identifies a node within one Graph. IDs are dense: the i'th call
// to AddNode returns NodeID(i).
type NodeID = int

// Graph is a mutable vertex-weighted undirected graph without self-loops
// or parallel edges. The zero value is an empty graph ready to use.
type Graph struct {
	weights []int64
	labels  []string
	byLabel map[string]NodeID
	// adj is the adjacency block: node u's neighbour bitset is the
	// stride-word row adj[u*stride:(u+1)*stride], and stride is
	// ⌈capacity/64⌉ for the capacity the block was laid out for.
	adj    []uint64
	stride int
	edges  int
	// hasAuto records that at least one node was added without a label
	// (AddNodeID); such labels are synthesised on demand.
	hasAuto bool
}

// New returns an empty graph with capacity for n nodes: its adjacency
// block is laid out once, so AddNode, AddNodeID and AddEdge among the
// first n nodes do not regrow it. A graph grows past its capacity on its
// own; pass 0 if the node count is unknown.
func New(n int) *Graph {
	g := &Graph{
		weights: make([]int64, 0, n),
		labels:  make([]string, 0, n),
	}
	g.layout(n)
	return g
}

// NewWithN returns New(n).
//
// Deprecated: call New, which lays the adjacency block out for n nodes.
func NewWithN(n int) *Graph { return New(n) }

// layout lays the adjacency block out for capacity nodes, copying the
// row of every node already added.
func (g *Graph) layout(capacity int) {
	stride := (capacity + wordBits - 1) / wordBits
	adj := make([]uint64, capacity*stride)
	for u := 0; u < g.N(); u++ {
		copy(adj[u*stride:], g.row(u))
	}
	g.adj, g.stride = adj, stride
}

// addNode appends node N() with the given label and weight, laying the
// block out again at double the capacity, and at least 64, when it is
// full.
func (g *Graph) addNode(label string, weight int64) NodeID {
	id := len(g.weights)
	if id*g.stride == len(g.adj) { // row id would start at the block's end
		g.layout(max(2*id, wordBits))
	}
	g.weights = append(g.weights, weight)
	g.labels = append(g.labels, label)
	return id
}

// labelTable returns the label index, creating it on the first labelled
// write sized for the node capacity: labelled builds still get a pre-sized
// table, and label-free rebuilds never allocate one.
func (g *Graph) labelTable() map[string]NodeID {
	if g.byLabel == nil {
		g.byLabel = make(map[string]NodeID, cap(g.weights))
	}
	return g.byLabel
}

// AddNode adds a node with the given label and weight and returns its ID.
// Labels must be unique and non-empty; the lower-bound constructions use
// them to address nodes symbolically (e.g. "v[i=1,m=3]" or "sigma[i=2,h=1,r=3]").
func (g *Graph) AddNode(label string, weight int64) (NodeID, error) {
	if label == "" {
		return 0, fmt.Errorf("graphs: empty node label")
	}
	if _, dup := g.byLabel[label]; dup {
		return 0, fmt.Errorf("graphs: duplicate node label %q", label)
	}
	id := g.addNode(label, weight)
	g.labelTable()[label] = id
	return id, nil
}

// AddNodeID adds a node with the given weight and no label, returning its
// ID. The label is synthesised lazily ("n<id>") only if Label or
// NodeByLabel is ever called, so graphs rebuilt purely by ID (the CONGEST
// gossip/collect programs) never pay for label formatting or the label
// table. Within the capacity New was given this performs no allocation.
func (g *Graph) AddNodeID(weight int64) NodeID {
	g.hasAuto = true
	return g.addNode("", weight)
}

// autoLabel is the synthesised label of an unlabelled node.
func autoLabel(id NodeID) string { return "n" + strconv.Itoa(id) }

// materializeLabels assigns the synthesised label to every unlabelled node
// and registers it in the label table, so label-based lookups see them. A
// synthesised label that collides with an explicit one gets apostrophes
// appended until unique (only possible when AddNode and AddNodeID are
// mixed with clashing names).
func (g *Graph) materializeLabels() {
	if !g.hasAuto {
		return
	}
	g.hasAuto = false
	byLabel := g.labelTable()
	for u, label := range g.labels {
		if label != "" {
			continue
		}
		candidate := autoLabel(u)
		for {
			if _, taken := byLabel[candidate]; !taken {
				break
			}
			candidate += "'"
		}
		g.labels[u] = candidate
		byLabel[candidate] = u
	}
}

// MustAddNode is AddNode panicking on error, for fixed constructions whose
// labels are generated and cannot collide.
func (g *Graph) MustAddNode(label string, weight int64) NodeID {
	id, err := g.AddNode(label, weight)
	if err != nil {
		panic(err)
	}
	return id
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.weights) }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// row is u's neighbour bitset, a view into the adjacency block.
func (g *Graph) row(u NodeID) []uint64 { return g.adj[u*g.stride : (u+1)*g.stride] }

// AddEdge inserts the undirected edge {u, v}. Self-loops and out-of-range
// endpoints are errors. Adding an existing edge is a silent no-op so that
// constructions can be described redundantly.
func (g *Graph) AddEdge(u, v NodeID) error {
	if err := g.checkNode(u); err != nil {
		return err
	}
	if err := g.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graphs: self-loop at node %d (%s)", u, g.labels[u])
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.row(u)[v/wordBits] |= 1 << (uint(v) % wordBits)
	g.row(v)[u/wordBits] |= 1 << (uint(u) % wordBits)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge panicking on error.
func (g *Graph) MustAddEdge(u, v NodeID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge {u, v} if present, reporting whether it was.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v || !g.HasEdge(u, v) {
		return false
	}
	g.row(u)[v/wordBits] &^= 1 << (uint(v) % wordBits)
	g.row(v)[u/wordBits] &^= 1 << (uint(u) % wordBits)
	g.edges--
	return true
}

// HasEdge reports whether {u, v} is an edge. Out-of-range queries are false.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return false
	}
	return g.adj[u*g.stride+v/wordBits]&(1<<(uint(v)%wordBits)) != 0
}

func (g *Graph) checkNode(u NodeID) error {
	if u < 0 || u >= g.N() {
		return fmt.Errorf("graphs: node %d out of range [0,%d)", u, g.N())
	}
	return nil
}

// Weight returns the weight of u.
func (g *Graph) Weight(u NodeID) int64 { return g.weights[u] }

// SetWeight updates the weight of u.
func (g *Graph) SetWeight(u NodeID, w int64) { g.weights[u] = w }

// Label returns the label of u, synthesising it for nodes added by
// AddNodeID.
func (g *Graph) Label(u NodeID) string {
	if g.labels[u] == "" {
		g.materializeLabels()
	}
	return g.labels[u]
}

// NodeByLabel resolves a label to its node ID.
func (g *Graph) NodeByLabel(label string) (NodeID, bool) {
	g.materializeLabels()
	id, ok := g.byLabel[label]
	return id, ok
}

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u NodeID) int {
	d := 0
	for _, w := range g.row(u) {
		d += bits.OnesCount64(w)
	}
	return d
}

// MaxDegree returns Δ(G), 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the sorted neighbour list of u (freshly allocated).
func (g *Graph) Neighbors(u NodeID) []NodeID {
	out := make([]NodeID, 0, g.Degree(u))
	for wi, w := range g.row(u) {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEachNeighbor calls fn for every neighbour of u in increasing order,
// without allocating.
func (g *Graph) ForEachNeighbor(u NodeID, fn func(v NodeID)) {
	for wi, w := range g.row(u) {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V NodeID
}

// Edges returns all edges sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := 0; u < g.N(); u++ {
		g.ForEachNeighbor(u, func(v NodeID) {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		})
	}
	return out
}

// TotalWeight returns the sum of all node weights.
func (g *Graph) TotalWeight() int64 {
	var total int64
	for _, w := range g.weights {
		total += w
	}
	return total
}

// WeightOfSet returns Σ_{v ∈ set} w(v), the paper's w(U) notation.
func (g *Graph) WeightOfSet(set []NodeID) int64 {
	var total int64
	for _, u := range set {
		total += g.weights[u]
	}
	return total
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New(g.N())
	out.hasAuto = g.hasAuto
	out.weights = append(out.weights, g.weights...)
	out.labels = append(out.labels, g.labels...)
	for label, id := range g.byLabel {
		out.labelTable()[label] = id
	}
	for u := 0; u < g.N(); u++ {
		copy(out.row(u), g.row(u))
	}
	out.edges = g.edges
	return out
}

// AddClique adds all edges among the given nodes (the paper's E(C)).
func (g *Graph) AddClique(nodes []NodeID) error {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if err := g.AddEdge(nodes[i], nodes[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddBiclique adds all edges between the two node sets (a full bipartite
// connection, used by the Remark 1 unweighted transform).
func (g *Graph) AddBiclique(a, b []NodeID) error {
	for _, u := range a {
		for _, v := range b {
			if err := g.AddEdge(u, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// IsClique reports whether the given nodes are pairwise adjacent.
func (g *Graph) IsClique(nodes []NodeID) bool {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !g.HasEdge(nodes[i], nodes[j]) {
				return false
			}
		}
	}
	return true
}

// IsIndependentSet reports whether no two of the given nodes are adjacent.
func (g *Graph) IsIndependentSet(nodes []NodeID) bool {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if g.HasEdge(nodes[i], nodes[j]) {
				return false
			}
		}
	}
	return true
}

// InducedSubgraph returns the subgraph induced by the given nodes, plus a
// mapping from new IDs back to the originals. Duplicate nodes are an error.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID, error) {
	sub := New(len(nodes))
	back := make([]NodeID, 0, len(nodes))
	newID := make(map[NodeID]NodeID, len(nodes))
	for _, u := range nodes {
		if err := g.checkNode(u); err != nil {
			return nil, nil, err
		}
		if _, dup := newID[u]; dup {
			return nil, nil, fmt.Errorf("graphs: duplicate node %d in induced subgraph", u)
		}
		id, err := sub.AddNode(g.Label(u), g.weights[u])
		if err != nil {
			return nil, nil, err
		}
		newID[u] = id
		back = append(back, u)
	}
	for _, u := range nodes {
		g.ForEachNeighbor(u, func(v NodeID) {
			nv, in := newID[v]
			if in && u < v {
				sub.MustAddEdge(newID[u], nv)
			}
		})
	}
	return sub, back, nil
}

// BFS returns hop distances from src (-1 for unreachable nodes).
func (g *Graph) BFS(src NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(u, func(v NodeID) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		})
	}
	return dist
}

// IsConnected reports whether the graph is connected (true for empty and
// single-node graphs).
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the largest BFS eccentricity, or -1 if the graph is
// disconnected or empty. Quadratic; intended for analysis of constructed
// instances, not hot paths.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diameter := 0
	for u := 0; u < g.N(); u++ {
		for _, d := range g.BFS(u) {
			if d == -1 {
				return -1
			}
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}

// Validate performs internal consistency checks: symmetric adjacency, no
// self-loops, edge count matching the bitsets, and label table integrity.
func (g *Graph) Validate() error {
	count := 0
	for u := 0; u < g.N(); u++ {
		if g.HasEdge(u, u) {
			return fmt.Errorf("graphs: self-loop at %d", u)
		}
		var failure error
		g.ForEachNeighbor(u, func(v NodeID) {
			if failure != nil {
				return
			}
			if v >= g.N() {
				failure = fmt.Errorf("graphs: node %d adjacent to out-of-range %d", u, v)
				return
			}
			if !g.HasEdge(v, u) {
				failure = fmt.Errorf("graphs: asymmetric edge {%d,%d}", u, v)
				return
			}
			if u < v {
				count++
			}
		})
		if failure != nil {
			return failure
		}
	}
	if count != g.edges {
		return fmt.Errorf("graphs: edge count %d, bitsets contain %d", g.edges, count)
	}
	for label, id := range g.byLabel {
		if id < 0 || id >= g.N() || g.labels[id] != label {
			return fmt.Errorf("graphs: label table corrupt at %q -> %d", label, id)
		}
	}
	return nil
}

// DOT renders the graph in Graphviz format. Weighted nodes show their
// weight; an optional partition colours nodes by owner.
func (g *Graph) DOT(name string, p *Partition) string {
	g.materializeLabels()
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n", name)
	for u := 0; u < g.N(); u++ {
		attrs := []string{fmt.Sprintf("label=%q", fmt.Sprintf("%s (w=%d)", g.labels[u], g.weights[u]))}
		if p != nil {
			attrs = append(attrs, fmt.Sprintf("colorscheme=set19, style=filled, fillcolor=%d", p.Of(u)%9+1))
		}
		fmt.Fprintf(&sb, "  n%d [%s];\n", u, strings.Join(attrs, ", "))
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  n%d -- n%d;\n", e.U, e.V)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// SortedLabels returns all labels in sorted order; deterministic output for
// golden tests.
func (g *Graph) SortedLabels() []string {
	g.materializeLabels()
	out := append([]string(nil), g.labels...)
	sort.Strings(out)
	return out
}
