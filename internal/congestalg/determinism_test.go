package congestalg

import (
	"reflect"
	"testing"

	"congestlb/internal/congest"
)

// TestParallelEnginesBitIdentical: on a ~64-node random graph, Luby,
// RankGreedy and GossipExact produce bit-identical Results (outputs and
// stats) under Parallel true and false. Parallel is deprecated and
// ignored; this pins that it stays so while the field exists.
func TestParallelEnginesBitIdentical(t *testing.T) {
	const n = 64
	g := allocTestGraph(t, n, 0.08, 4242)

	cases := []struct {
		name string
		make func() []congest.NodeProgram
		bw   int64
	}{
		{name: "luby", make: func() []congest.NodeProgram { return NewLubyPrograms(n) }},
		{name: "rank-greedy", make: func() []congest.NodeProgram { return NewRankGreedyPrograms(n) }},
		{name: "gossip-exact", make: func() []congest.NodeProgram { return NewGossipExactPrograms(n) }, bw: 96},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(parallel bool) congest.Result {
				net, err := congest.NewNetwork(g, tc.make(), congest.Config{
					Seed:          1234,
					Parallel:      parallel,
					BandwidthBits: tc.bw,
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
				t.Fatalf("stats differ:\n  sequential %+v\n  parallel   %+v", seq.Stats, par.Stats)
			}
			if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
				t.Fatalf("outputs differ between engines")
			}
		})
	}
}
