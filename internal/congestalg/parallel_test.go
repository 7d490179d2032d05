package congestalg

import (
	"math/rand"
	"reflect"
	"testing"

	"congestlb/internal/congest"
)

// Setting the deprecated, ignored Config.Parallel must leave every
// algorithm in the package bit-identical (determinism relies on per-node
// seeded randomness and ordered delivery, not on scheduling).

func TestParallelEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	g := randomGraph(24, 0.2, 4, rng)

	algorithms := []struct {
		name string
		make func() []congest.NodeProgram
		bw   int64
	}{
		{name: "luby", make: func() []congest.NodeProgram { return NewLubyPrograms(24) }},
		{name: "rank-greedy", make: func() []congest.NodeProgram { return NewRankGreedyPrograms(24) }},
		{name: "leader-bfs", make: func() []congest.NodeProgram { return NewLeaderBFSPrograms(24) }},
		{name: "gossip-exact", make: func() []congest.NodeProgram { return NewGossipExactPrograms(24) }, bw: 96},
		{name: "collect-solve", make: func() []congest.NodeProgram { return NewCollectSolvePrograms(24) }, bw: 96},
	}
	for _, a := range algorithms {
		a := a
		t.Run(a.name, func(t *testing.T) {
			run := func(parallel bool) congest.Result {
				net, err := congest.NewNetwork(g, a.make(), congest.Config{
					Parallel:      parallel,
					Seed:          5,
					BandwidthBits: a.bw,
				})
				if err != nil {
					t.Fatal(err)
				}
				result, err := net.Run()
				if err != nil {
					t.Fatal(err)
				}
				return result
			}
			seq := run(false)
			par := run(true)
			if seq.Stats != par.Stats {
				t.Fatalf("stats diverge: seq=%+v par=%+v", seq.Stats, par.Stats)
			}
			if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
				t.Fatalf("outputs diverge between engines")
			}
		})
	}
}
