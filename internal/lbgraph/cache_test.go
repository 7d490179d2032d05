package lbgraph

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"congestlb/internal/bitvec"
	"congestlb/internal/code"
	"congestlb/internal/core"
	"congestlb/internal/graphs"
)

// newCachedSession returns an empty build cache and a session over it.
func newCachedSession() (*BuildCache, *CacheSession) {
	c := NewBuildCache(0)
	return c, NewCacheSession(c)
}

// graphsEqual compares two graphs on content: node count, weights, edges
// and labels.
func graphsEqual(t *testing.T, a, b *graphs.Graph) bool {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if a.Weight(v) != b.Weight(v) || a.Label(v) != b.Label(v) {
			return false
		}
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// TestBuildCacheTransparent pins the foundational property: a cached
// build is content-identical to an uncached one.
func TestBuildCacheTransparent(t *testing.T) {
	c, sess := newCachedSession()
	p := Params{T: 2, Alpha: 1, Ell: 3}
	l := mustLinear(t, p)

	uncached, err := l.BuildFixed()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := l.BuildFixedWith(sess) // miss
	if err != nil {
		t.Fatal(err)
	}
	warm, err := l.BuildFixedWith(sess) // hit
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(t, uncached.Graph, cold.Graph) || !graphsEqual(t, uncached.Graph, warm.Graph) {
		t.Fatal("cached build differs from uncached build")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("expected 1 miss + 1 hit, got %+v", st)
	}
}

// TestBuildCacheKeysDistinct drives every axis that must separate cache
// entries: family kind, parameters, ablation flags and the codeword table
// of a custom code. Two different constructions sharing a key would serve
// one family's graph to the other — the collision the content hash must
// prevent.
func TestBuildCacheKeysDistinct(t *testing.T) {
	p := Params{T: 2, Alpha: 1, Ell: 3}
	lin := mustLinear(t, p)
	quad, err := NewQuadratic(p)
	if err != nil {
		t.Fatal(err)
	}
	linBig := mustLinear(t, Params{T: 3, Alpha: 1, Ell: 3})
	noWire, err := NewLinearVariant(p, LinearOptions{OmitInterCopyWiring: true})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := NewLinearVariant(p, LinearOptions{UniformWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := code.NewFirstSymbol(p.Q(), p.M())
	if err != nil {
		t.Fatal(err)
	}
	weakFam, err := NewLinearVariant(p, LinearOptions{Code: weak})
	if err != nil {
		t.Fatal(err)
	}

	keys := map[CacheKey]string{}
	add := func(name string, k CacheKey) {
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision: %s and %s share a cache key", prev, name)
		}
		keys[k] = name
	}
	add("linear t=2", lin.fixedKey())
	add("quadratic t=2", quad.fixedKey())
	add("linear t=3", linBig.fixedKey())
	add("linear no-wiring", noWire.fixedKey())
	add("linear weak-code", weakFam.fixedKey())

	// UniformWeights changes Build, not BuildFixed — but the two variants
	// must still not share an entry, because callers receive private copies
	// keyed on the whole option set.
	if uniform.fixedKey() == lin.fixedKey() {
		t.Fatal("uniform-weights variant shares the faithful fixed key")
	}

	// The quadratic input-edge ablations deliberately share the fixed key
	// with the faithful quadratic family: the fixed graph is identical and
	// input edges are applied to the returned private copy.
	inv, err := NewQuadraticVariant(p, QuadraticOptions{InvertInputEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if inv.fixedKey() != quad.fixedKey() {
		t.Fatal("quadratic variants should share the fixed construction entry")
	}
}

// TestBuildCacheCrossFamilyServesRightGraph is the end-to-end collision
// check: interleaved builds of different families with the same parameters
// must each get their own construction.
func TestBuildCacheCrossFamilyServesRightGraph(t *testing.T) {
	c, sess := newCachedSession()
	p := Params{T: 2, Alpha: 1, Ell: 3}
	lin := mustLinear(t, p)
	quad, err := NewQuadratic(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		li, err := lin.BuildFixedWith(sess)
		if err != nil {
			t.Fatal(err)
		}
		qi, err := quad.BuildFixedWith(sess)
		if err != nil {
			t.Fatal(err)
		}
		if li.Graph.N() != p.LinearN() {
			t.Fatalf("round %d: linear build has %d nodes, want %d", i, li.Graph.N(), p.LinearN())
		}
		if qi.Graph.N() != p.QuadraticN() {
			t.Fatalf("round %d: quadratic build has %d nodes, want %d", i, qi.Graph.N(), p.QuadraticN())
		}
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("expected 2 misses + 2 hits, got %+v", st)
	}
}

// TestBuildCacheCopyOnReturnIsolation mutates every component of a
// returned instance and asserts the next hit is pristine: mutating a
// returned graph must not poison the cache.
func TestBuildCacheCopyOnReturnIsolation(t *testing.T) {
	c, sess := newCachedSession()
	p := Params{T: 2, Alpha: 1, Ell: 3}
	l := mustLinear(t, p)

	first, err := l.BuildFixedWith(sess)
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantM := first.Graph.N(), first.Graph.M()
	wantW := first.Graph.Weight(0)
	wantCover0 := first.Graph.N() // sentinel below overwrites cover[0][0]

	// Vandalise the returned copy: weights, edges, cover, partition.
	first.Graph.SetWeight(0, 999)
	if !first.Graph.HasEdge(0, 1) {
		t.Fatal("A-clique edge {0,1} missing")
	}
	first.Graph.RemoveEdge(0, 1)
	first.CliqueCover[0][0] = wantCover0
	_ = first.Partition.Assign(0, 1)

	second, err := l.BuildFixedWith(sess)
	if err != nil {
		t.Fatal(err)
	}
	if second.Graph.N() != wantN || second.Graph.M() != wantM {
		t.Fatalf("cache poisoned: graph now %d nodes / %d edges, want %d / %d",
			second.Graph.N(), second.Graph.M(), wantN, wantM)
	}
	if second.Graph.Weight(0) != wantW {
		t.Fatalf("cache poisoned: weight(0) = %d, want %d", second.Graph.Weight(0), wantW)
	}
	if !second.Graph.HasEdge(0, 1) {
		t.Fatal("cache poisoned: removed edge is gone from the cached entry")
	}
	if second.CliqueCover[0][0] == wantCover0 {
		t.Fatal("cache poisoned: clique cover shares storage with the returned copy")
	}
	if second.Partition.Of(0) != 0 {
		t.Fatal("cache poisoned: partition shares storage with the returned copy")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("expected 1 miss + 1 hit, got %+v", st)
	}

	// Build applies weights to the returned copy, so a weighted build after
	// a vandalised fixed build must still see clean weights.
	x1, x2 := bitvec.New(p.K()), bitvec.New(p.K())
	x1.Set(0)
	x2.Set(1)
	weighted, err := l.BuildWith(sess, bitvec.Inputs{x1, x2})
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Graph.N() != wantN || !weighted.Graph.HasEdge(0, 1) {
		t.Fatal("weighted build inherited the vandalised copy")
	}
}

// TestBuildCacheSingleFlight runs many concurrent builders of one key and
// asserts exactly one construction executes while everyone receives an
// isolated copy.
func TestBuildCacheSingleFlight(t *testing.T) {
	c := NewBuildCache(8)
	var builds atomic.Int64
	key := CacheKey{1, 2, 3}
	build := func() (core.Instance, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		g := graphs.New(2)
		g.MustAddNode("a", 1)
		g.MustAddNode("b", 1)
		return core.Instance{Graph: g}, nil
	}

	const callers = 16
	got := make([]core.Instance, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := c.instance(key, build, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = inst
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("single-flight failed: %d builds for one key", n)
	}
	for i := 0; i < callers; i++ {
		for j := i + 1; j < callers; j++ {
			if got[i].Graph == got[j].Graph {
				t.Fatalf("callers %d and %d share a graph pointer", i, j)
			}
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("expected 1 miss + %d hits, got %+v", callers-1, st)
	}
}

// TestBuildCacheSessionAttribution pins the per-caller counters: two
// sessions over one cache each see exactly their own traffic, and the
// cache's counters see the sum.
func TestBuildCacheSessionAttribution(t *testing.T) {
	c := NewBuildCache(0)
	p := Params{T: 2, Alpha: 1, Ell: 3}
	l := mustLinear(t, p)

	a, b := NewCacheSession(c), NewCacheSession(c)
	if _, err := l.BuildFixedWith(a); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := l.BuildFixedWith(b); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := l.BuildFixedWith(b); err != nil { // hit
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Misses != 1 || sa.Hits != 0 {
		t.Fatalf("session a stats %+v, want 1 miss", sa)
	}
	if sb.Misses != 0 || sb.Hits != 2 {
		t.Fatalf("session b stats %+v, want 2 hits", sb)
	}
	total := c.Stats()
	if total.Hits != sa.Hits+sb.Hits || total.Misses != sa.Misses+sb.Misses {
		t.Fatalf("cache stats %+v do not sum sessions %+v + %+v", total, sa, sb)
	}
	// Entries belongs to the cache, never to a view of it.
	if sa.Entries != 0 || sb.Entries != 0 {
		t.Fatal("session stats report cache occupancy")
	}
	// A nil session builds from scratch: no cache, no attribution.
	var nilSess *CacheSession
	if _, err := l.BuildFixedWith(nilSess); err != nil {
		t.Fatal(err)
	}
	if nilSess.Stats() != (CacheStats{}) {
		t.Fatal("nil session accumulated stats")
	}
	if after := c.Stats(); after != total {
		t.Fatalf("nil session reached the cache: %+v, was %+v", after, total)
	}
}

// TestBuildCacheEviction fills a bounded cache past capacity and checks
// LRU eviction re-misses the evicted key.
func TestBuildCacheEviction(t *testing.T) {
	c := NewBuildCache(2)
	mk := func(id byte) (CacheKey, func() (core.Instance, error)) {
		key := CacheKey{id}
		return key, func() (core.Instance, error) {
			g := graphs.New(1)
			g.MustAddNode("x", int64(id))
			return core.Instance{Graph: g}, nil
		}
	}
	for _, id := range []byte{1, 2, 3} { // 3 evicts 1
		key, build := mk(id)
		if _, err := c.instance(key, build, nil); err != nil {
			t.Fatal(err)
		}
	}
	key1, build1 := mk(1)
	if _, err := c.instance(key1, build1, nil); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	if st.Misses != 4 {
		t.Fatalf("evicted key should re-miss: %+v", st)
	}
	if st.Entries > 2 {
		t.Fatalf("capacity exceeded: %+v", st)
	}
}

// TestBuildCacheDisabledBypasses pins a session over no cache
// (NewCacheSession(nil), the Lab's WithBuildCache(false)): every build runs
// from scratch, returns its own instance, and books a miss.
func TestBuildCacheDisabledBypasses(t *testing.T) {
	p := Params{T: 2, Alpha: 1, Ell: 3}
	l := mustLinear(t, p)
	sess := NewCacheSession(nil)
	var got [2]core.Instance
	for i := range got {
		inst, err := l.BuildFixedWith(sess)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = inst
	}
	if got[0].Graph == got[1].Graph || !graphsEqual(t, got[0].Graph, got[1].Graph) {
		t.Fatal("uncached builds share a graph or differ in content")
	}
	if st := sess.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("session attribution lost without a cache: %+v", st)
	}
}
