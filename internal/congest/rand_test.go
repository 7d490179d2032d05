package congest

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randCapture keeps the generator the engine hands it and stops at once.
type randCapture struct {
	rng  *rand.Rand
	done bool
}

func (c *randCapture) Init(info NodeInfo) { c.rng = info.Rand }
func (c *randCapture) Round(int, []Message) []Message {
	c.done = true
	return nil
}
func (c *randCapture) Done() bool  { return c.done }
func (c *randCapture) Output() any { return nil }

// drawMix runs every kind of draw a program might make, with a reseed in
// the middle (or, with seedFirst, before the first draw), and records the
// results in order.
func drawMix(r *rand.Rand, seedFirst bool) []uint64 {
	var out []uint64
	round := func() {
		out = append(out, uint64(r.Int63()), r.Uint64(), uint64(r.Intn(1000)),
			math.Float64bits(r.Float64()), uint64(r.Int31()))
		for _, v := range r.Perm(7) {
			out = append(out, uint64(v))
		}
	}
	if seedFirst {
		r.Seed(99)
	}
	round()
	r.Seed(-12345)
	round()
	round()
	return out
}

// TestNodeRandMatchesEagerSource pins the lazily created node generator to
// the eager rand.NewSource stream it replaces, through both engines that
// hand out NodeInfo.Rand.
func TestNodeRandMatchesEagerSource(t *testing.T) {
	const n = 6
	for _, seed := range []int64{0, 1, 42, -7, 1<<40 + 3} {
		for _, seedFirst := range []bool{false, true} {
			solo := make([]NodeProgram, n)
			batched := make([]NodeProgram, n)
			for u := 0; u < n; u++ {
				solo[u], batched[u] = &randCapture{}, &randCapture{}
			}
			net, err := NewNetwork(ring(t, n), solo, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			_, errs, _ := RunBatch(context.Background(), []BatchItem{{Graph: ring(t, n), Programs: batched, Config: Config{Seed: seed}}})
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			for u := 0; u < n; u++ {
				want := drawMix(rand.New(rand.NewSource(seed^(int64(u)+1)*0x5DEECE66D)), seedFirst)
				for engine, progs := range map[string][]NodeProgram{"run": solo, "batch": batched} {
					got := drawMix(progs[u].(*randCapture).rng, seedFirst)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d node %d seedFirst=%v (%s): draws diverge from the eager source\ngot  %v\nwant %v",
							seed, u, seedFirst, engine, got, want)
					}
				}
			}
		}
	}
}
