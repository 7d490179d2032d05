package congestalg

import (
	"fmt"
	"math/rand"
	"testing"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
	"congestlb/internal/mis/cache"
)

// randomGraph builds a connected random weighted graph: a random spanning
// tree plus extra edges with the given probability.
func randomGraph(n int, extraProb float64, maxW int64, rng *rand.Rand) *graphs.Graph {
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), 1+rng.Int63n(maxW))
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, rng.Intn(i))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < extraProb {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

func runPrograms(t *testing.T, g *graphs.Graph, programs []congest.NodeProgram, cfg congest.Config) congest.Result {
	t.Helper()
	net, err := congest.NewNetwork(g, programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	result, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return result
}

func TestWireStatusRoundTrip(t *testing.T) {
	for _, state := range []byte{stateUndecided, stateIn, stateOut} {
		for _, value := range []uint32{0, 1, 1 << 20, ^uint32(0)} {
			data := encodeStatus(state, value)
			gotState, gotValue, err := decodeStatus(data)
			if err != nil {
				t.Fatal(err)
			}
			if gotState != state || gotValue != value {
				t.Fatalf("round trip (%d,%d) -> (%d,%d)", state, value, gotState, gotValue)
			}
		}
	}
	if _, _, err := decodeStatus([]byte{9, 9}); err == nil {
		t.Fatal("malformed status accepted")
	}
}

func TestWireRecordRoundTrip(t *testing.T) {
	nr := nodeRecord{id: 513, weight: 70000, degree: 12}
	gotN, gotE, kind, err := decodeRecord(encodeNodeRecord(nr))
	if err != nil || kind != wireNode || gotN != nr {
		t.Fatalf("node record round trip: %v %v %d %v", gotN, gotE, kind, err)
	}
	er := edgeRecord{u: 3, v: 700}
	gotN, gotE, kind, err = decodeRecord(encodeEdgeRecord(er))
	if err != nil || kind != wireEdge || gotE != er {
		t.Fatalf("edge record round trip: %v %v %d %v", gotN, gotE, kind, err)
	}
	if _, _, _, err := decodeRecord(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, _, _, err := decodeRecord([]byte{wireNode, 1}); err == nil {
		t.Fatal("short node record accepted")
	}
	if _, _, _, err := decodeRecord([]byte{wireEdge, 1}); err == nil {
		t.Fatal("short edge record accepted")
	}
	if _, _, _, err := decodeRecord([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown record type accepted")
	}
}

func TestLubyProducesMaximalIS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(60)
		g := randomGraph(n, 0.15, 5, rng)
		result := runPrograms(t, g, NewLubyPrograms(n), congest.Config{Seed: int64(trial)})
		set := MembershipSet(result)
		maximal, err := mis.IsMaximal(g, set)
		if err != nil {
			t.Fatalf("trial %d: invalid set: %v", trial, err)
		}
		if !maximal {
			t.Fatalf("trial %d: Luby set not maximal", trial)
		}
	}
}

func TestLubyIsolatedNodes(t *testing.T) {
	g := graphs.New(3)
	for i := 0; i < 3; i++ {
		g.MustAddNode(fmt.Sprintf("iso%d", i), 1)
	}
	result := runPrograms(t, g, NewLubyPrograms(3), congest.Config{})
	set := MembershipSet(result)
	if len(set) != 3 {
		t.Fatalf("isolated nodes: set = %v, want all three", set)
	}
}

func TestLubyDifferentSeedsBothValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(40, 0.2, 3, rng)
	for seed := int64(0); seed < 5; seed++ {
		result := runPrograms(t, g, NewLubyPrograms(40), congest.Config{Seed: seed})
		if maximal, err := mis.IsMaximal(g, MembershipSet(result)); err != nil || !maximal {
			t.Fatalf("seed %d: maximal=%v err=%v", seed, maximal, err)
		}
	}
}

func TestRankGreedyMatchesSequentialGreedyWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(50)
		g := randomGraph(n, 0.2, 9, rng)
		result := runPrograms(t, g, NewRankGreedyPrograms(n), congest.Config{})
		set := MembershipSet(result)
		maximal, err := mis.IsMaximal(g, set)
		if err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		if !maximal {
			t.Fatalf("trial %d: not maximal", trial)
		}
		// The heaviest node overall always joins (it dominates everyone).
		heaviest := 0
		for u := 1; u < n; u++ {
			if g.Weight(u) > g.Weight(heaviest) ||
				(g.Weight(u) == g.Weight(heaviest) && u > heaviest) {
				heaviest = u
			}
		}
		found := false
		for _, u := range set {
			if u == heaviest {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: heaviest node %d missing from greedy set", trial, heaviest)
		}
	}
}

// TestRankGreedyWeightOverStatusField: on the 8-node path whose node 0
// weighs 2^32, node 0's rank does not fit the 32-bit status value. The run
// still terminates, and node 0 outputs an error naming its weight instead
// of being silently ranked as weight 0.
func TestRankGreedyWeightOverStatusField(t *testing.T) {
	const n = 8
	g := graphs.New(n)
	g.AddNodeID(1 << 32)
	for u := 1; u < n; u++ {
		g.AddNodeID(1)
		g.MustAddEdge(u-1, u)
	}
	result := runPrograms(t, g, NewRankGreedyPrograms(n), congest.Config{})
	const want = "congestalg: node 0 failed: congestalg: weight 4294967296 of node 0 does not fit the 32-bit status field"
	if err := OutputError(result); err == nil || err.Error() != want {
		t.Fatalf("OutputError = %v, want %q", err, want)
	}
}

func TestRankGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(30, 0.3, 7, rng)
	first := MembershipSet(runPrograms(t, g, NewRankGreedyPrograms(30), congest.Config{Seed: 1}))
	second := MembershipSet(runPrograms(t, g, NewRankGreedyPrograms(30), congest.Config{Seed: 99}))
	if len(first) != len(second) {
		t.Fatalf("rank greedy not deterministic: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("rank greedy not deterministic: %v vs %v", first, second)
		}
	}
}

func TestGossipExactFindsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(14)
		g := randomGraph(n, 0.3, 6, rng)
		result := runPrograms(t, g, NewGossipExactPrograms(n), congest.Config{BandwidthBits: 80})
		set, err := ExactSetFromOutputs(result)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gotWeight, err := mis.Verify(g, set)
		if err != nil {
			t.Fatalf("trial %d: invalid set: %v", trial, err)
		}
		want, err := mis.Exhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		if gotWeight != want.Weight {
			t.Fatalf("trial %d: gossip weight %d, optimum %d", trial, gotWeight, want.Weight)
		}
	}
}

// TestGossipExactRoundsScaleWithEdges checks the O(n + m + D) round count
// that GossipExact's doc claims, as Rounds ≤ n + m + D, on connected
// graphs: allocTestGraph at several sizes and chord densities, one dense
// randomGraph, and stars, paths and cliques. Each run must also end with
// every node agreeing.
func TestGossipExactRoundsScaleWithEdges(t *testing.T) {
	nets := []*graphs.Graph{randomGraph(20, 0.4, 4, rand.New(rand.NewSource(23)))}
	for _, n := range []int{2, 3, 5, 9, 14, 22, 34} {
		for _, chords := range []float64{0, 0.05, 0.15, 0.4, 0.8} {
			for seed := int64(1); seed <= 8; seed++ {
				nets = append(nets, allocTestGraph(t, n, chords, 100*seed+int64(n)))
			}
		}
	}
	for _, n := range []int{2, 3, 6, 11, 19, 30} {
		nets = append(nets,
			shapeGraph(n, func(u, _ int) bool { return u == 0 }),
			shapeGraph(n, func(u, v int) bool { return v == u+1 }),
			shapeGraph(n, func(int, int) bool { return true }))
	}
	for _, g := range nets {
		n, m, d := g.N(), g.M(), g.Diameter()
		res := runPrograms(t, g, NewGossipExactPrograms(n), congest.Config{BandwidthBits: 8 * nodeRecordLen})
		if _, err := ExactSetFromOutputs(res); err != nil {
			t.Fatalf("n=%d m=%d: %v", n, m, err)
		}
		if res.Stats.Rounds > n+m+d {
			t.Fatalf("n=%d m=%d D=%d: %d rounds, more than n + m + D = %d", n, m, d, res.Stats.Rounds, n+m+d)
		}
	}
}

func TestGossipExactAgreementAcrossNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := randomGraph(12, 0.3, 5, rng)
	result := runPrograms(t, g, NewGossipExactPrograms(12), congest.Config{BandwidthBits: 80})
	if _, err := ExactSetFromOutputs(result); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipSetIgnoresNonBool(t *testing.T) {
	result := congest.Result{Outputs: []any{true, nil, false, true}}
	set := MembershipSet(result)
	if len(set) != 2 || set[0] != 0 || set[1] != 3 {
		t.Fatalf("MembershipSet = %v", set)
	}
}

func BenchmarkLuby128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(128, 0.05, 4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := congest.NewNetwork(g, NewLubyPrograms(128), congest.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGossipExact16(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(16, 0.3, 4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := congest.NewNetwork(g, NewGossipExactPrograms(16), congest.Config{BandwidthBits: 80})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGossipExact90 runs GossipExact on a 90-node graph through a
// warm solve session: every local solve is a cache hit, so B/op and
// allocs/op are the gossip's own.
func BenchmarkGossipExact90(b *testing.B) {
	const n = 90
	g := allocTestGraph(b, n, 0.08, 90)
	sess := cache.NewSession(cache.New(4))
	run := func() {
		net, err := congest.NewNetwork(g, NewGossipExactProgramsWith(sess, n), congest.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestNodeRecordFits: a node record names the first field its wire
// format cannot carry — the ID and the degree get 16 bits, the weight 32
// unsigned — with its value; records at the limits fit.
func TestNodeRecordFits(t *testing.T) {
	for _, tc := range []struct {
		r    nodeRecord
		want string
	}{
		{nodeRecord{id: 65535, weight: 1<<32 - 1, degree: 65535}, ""},
		{nodeRecord{id: 0, weight: 0, degree: 0}, ""},
		{nodeRecord{id: 65536, weight: 1, degree: 1}, "congestalg: node ID 65536 does not fit the 16-bit wire field"},
		{nodeRecord{id: 3, weight: 1 << 32, degree: 1}, "congestalg: weight 4294967296 of node 3 does not fit the 32-bit wire field"},
		{nodeRecord{id: 3, weight: -1, degree: 1}, "congestalg: weight -1 of node 3 does not fit the 32-bit wire field"},
		{nodeRecord{id: 3, weight: 1, degree: 65536}, "congestalg: degree 65536 of node 3 does not fit the 16-bit wire field"},
	} {
		err := tc.r.fits()
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Fatalf("%+v: fits() = %v, want %q", tc.r, err, tc.want)
		}
	}
}
