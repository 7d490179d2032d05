package cache

import (
	"encoding/hex"
	"testing"

	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

// pinnedKeyGraph builds a graph from weights and an edge list.
func pinnedKeyGraph(weights []int64, edges [][2]int) *graphs.Graph {
	g := graphs.New(len(weights))
	for _, w := range weights {
		g.AddNodeID(w)
	}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// TestKeyOfPinnedDigests pins the hex digests of two fixed solves, one
// with a clique cover and one without, both with a nonzero step budget.
// Disk-tier entries are stored under these keys, so a change to the key
// layout would strand every entry an earlier version wrote.
func TestKeyOfPinnedDigests(t *testing.T) {
	cases := []struct {
		name string
		g    *graphs.Graph
		opts mis.Options
		want string
	}{
		{
			name: "no cover",
			g: pinnedKeyGraph([]int64{3, 1, 4, 1, 5, 9, 2},
				[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {1, 4}}),
			opts: mis.Options{MaxSteps: 1000},
			want: "6418568d762770a551dd567daf58b0c1e62c02f3e06fa5e79b1ecff8b337e832",
		},
		{
			name: "two-triangle cover",
			g: pinnedKeyGraph([]int64{2, 7, 1, 8, 2, 8},
				[][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}}),
			opts: mis.Options{MaxSteps: 50_000, CliqueCover: [][]graphs.NodeID{{3, 4, 5}, {0, 1, 2}}},
			want: "93c9e8e2d98be341ceb143c47e18dc4a38b8c47a2dc34335238ba5a8740ae418",
		},
	}
	for _, c := range cases {
		key, ok := KeyOf(c.g, c.opts)
		if !ok {
			t.Fatalf("%s: reported uncacheable", c.name)
		}
		if got := hex.EncodeToString(key[:]); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// keyInput is a solve decoded from fuzz bytes: n ≤ 16 nodes, their
// weights, an edge list in insertion order, a step budget and an optional
// cover (a partition of the nodes; KeyOf does not require cliques).
type keyInput struct {
	weights  []int64
	edges    [][2]int
	maxSteps int64
	cover    [][]graphs.NodeID
}

// decodeKeyInput reads, in order: n-1 (mod 16), n weights, the step
// budget, a cover flag with one part number per node, then edge pairs
// until the bytes run out. Self-loops and repeated edges are dropped.
func decodeKeyInput(data []byte) (keyInput, bool) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	b, ok := next()
	if !ok {
		return keyInput{}, false
	}
	n := 1 + int(b%16)
	var in keyInput
	for v := 0; v < n; v++ {
		b, ok := next()
		if !ok {
			return keyInput{}, false
		}
		in.weights = append(in.weights, int64(b)*int64(b))
	}
	if b, ok = next(); !ok {
		return keyInput{}, false
	}
	in.maxSteps = int64(b) * 1000
	if b, ok = next(); !ok {
		return keyInput{}, false
	}
	if b%2 == 1 {
		parts := make(map[int][]graphs.NodeID)
		var order []int
		for v := 0; v < n; v++ {
			pb, ok := next()
			if !ok {
				return keyInput{}, false
			}
			p := int(pb % 4)
			if _, seen := parts[p]; !seen {
				order = append(order, p)
			}
			parts[p] = append(parts[p], v)
		}
		for _, p := range order {
			in.cover = append(in.cover, parts[p])
		}
	}
	seen := make(map[[2]int]bool)
	for len(data) >= 2 {
		u, _ := next()
		v, _ := next()
		e := [2]int{int(u) % n, int(v) % n}
		lo, hi := min(e[0], e[1]), max(e[0], e[1])
		if lo == hi || seen[[2]int{lo, hi}] {
			continue
		}
		seen[[2]int{lo, hi}] = true
		in.edges = append(in.edges, e)
	}
	return in, true
}

// graph builds the input's graph with its edges inserted in the given
// order.
func (in keyInput) graph(edges [][2]int) *graphs.Graph {
	g := graphs.New(len(in.weights))
	for _, w := range in.weights {
		g.AddNodeID(w)
	}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// FuzzKeyOf checks that KeyOf depends on a solve's content and nothing
// else. The key must not change when the edges, the cover's parts, or the
// nodes within a part are inserted in another order; it must change when
// one weight, one edge or the step budget changes.
func FuzzKeyOf(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeKeyInput(data)
		if !ok {
			return
		}
		n := len(in.weights)
		opts := mis.Options{MaxSteps: in.maxSteps, CliqueCover: in.cover}
		want, ok := KeyOf(in.graph(in.edges), opts)
		if !ok {
			t.Fatalf("valid input reported uncacheable: %+v", in)
		}

		// The same content, inserted in another order.
		reversed := make([][2]int, len(in.edges))
		for i, e := range in.edges {
			reversed[len(in.edges)-1-i] = [2]int{e[1], e[0]}
		}
		var permuted [][]graphs.NodeID
		for i := len(in.cover) - 1; i >= 0; i-- {
			part := in.cover[i]
			rev := make([]graphs.NodeID, len(part))
			for j, v := range part {
				rev[len(part)-1-j] = v
			}
			permuted = append(permuted, rev)
		}
		if got, ok := KeyOf(in.graph(reversed), mis.Options{MaxSteps: in.maxSteps, CliqueCover: permuted}); !ok || got != want {
			t.Fatalf("reversed edges with the cover permuted: key changed (ok=%v)", ok)
		}

		// One change of content.
		heavier := in
		heavier.weights = append([]int64(nil), in.weights...)
		heavier.weights[n-1]++
		if got, _ := KeyOf(heavier.graph(in.edges), opts); got == want {
			t.Fatal("a weight change kept the key")
		}
		if got, _ := KeyOf(in.graph(in.edges), mis.Options{MaxSteps: in.maxSteps + 1, CliqueCover: in.cover}); got == want {
			t.Fatal("a step-budget change kept the key")
		}
		if len(in.edges) > 0 {
			if got, _ := KeyOf(in.graph(in.edges[1:]), opts); got == want {
				t.Fatal("removing an edge kept the key")
			}
		} else if n >= 2 {
			if got, _ := KeyOf(in.graph([][2]int{{0, 1}}), opts); got == want {
				t.Fatal("adding an edge kept the key")
			}
		}
	})
}
