package core_test

import (
	"math/rand"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/core"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis/cache"
)

// BenchmarkSimulateReduce times the Theorem 5 simulation on the two
// instances POST /v1/reduce serves: GossipExact on linear t=3, α=1, ℓ=4
// (n=90) and on quadratic t=2, α=1, ℓ=3 (n=96), with Parallel set as the
// service's clients send it. Every local solve hits a warm solve session,
// so the figure is the round loop and the cut tally. Run it with
// -benchmem.
func BenchmarkSimulateReduce(b *testing.B) {
	lin, err := lbgraph.NewLinear(lbgraph.Params{T: 3, Alpha: 1, Ell: 4})
	if err != nil {
		b.Fatal(err)
	}
	quad, err := lbgraph.NewQuadratic(lbgraph.Params{T: 2, Alpha: 1, Ell: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fam  core.Family
	}{
		{"linear-t3", lin},
		{"quadratic-t2", quad},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fam := tc.fam
			in, _, err := bitvec.RandomUniquelyIntersecting(fam.InputBits(), fam.Players(), bitvec.GenOptions{Density: 0.3}, rand.New(rand.NewSource(43)))
			if err != nil {
				b.Fatal(err)
			}
			inst, err := fam.Build(in)
			if err != nil {
				b.Fatal(err)
			}
			factory := core.GossipProgramsWith(cache.NewSession(cache.New(16)))
			cfg := congest.Config{Parallel: true}
			run := func() {
				if _, err := core.SimulateBuilt(fam, in, inst, factory, core.GossipOpt, cfg); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm the solve session
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
