package congestalg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
)

// roundOnly hides every method of a program but NodeProgram's, so the
// round loop drives it through its inbox adapter and the program's Round
// shim instead of Receive and Send.
type roundOnly struct{ congest.NodeProgram }

func roundOnlyPrograms(programs []congest.NodeProgram) []congest.NodeProgram {
	out := make([]congest.NodeProgram, len(programs))
	for i, p := range programs {
		out[i] = roundOnly{p}
	}
	return out
}

// unicastOnly drives a program through push delivery but sends its
// broadcast as one unicast per neighbour, expanded by a loop of its own
// over the neighbour list the program got at Init, so the round loop
// delivers every message on its per-message path.
type unicastOnly struct {
	congest.PushProgram
	id   graphs.NodeID
	nbrs []graphs.NodeID
}

func (p *unicastOnly) Init(info congest.NodeInfo) {
	p.id, p.nbrs = info.ID, info.Neighbors
	p.PushProgram.Init(info)
}

func (p *unicastOnly) Send(round int, out []congest.Message) ([]congest.Message, []byte) {
	unicasts, data := p.PushProgram.Send(round, nil)
	if data != nil {
		for _, v := range p.nbrs {
			out = append(out, congest.Message{From: p.id, To: v, Data: data})
		}
	}
	return append(out, unicasts...), nil
}

func unicastOnlyPrograms(programs []congest.NodeProgram) []congest.NodeProgram {
	out := make([]congest.NodeProgram, len(programs))
	for i, p := range programs {
		out[i] = &unicastOnly{PushProgram: p.(congest.PushProgram)}
	}
	return out
}

// pushCase is one run of the equivalence test: a program family on a
// graph under a config.
type pushCase struct {
	name     string
	g        *graphs.Graph
	programs func(n int) []congest.NodeProgram
	cfg      congest.Config
}

// pushOutcome is what a run shows: the error text or the Result, and the
// hook transcript up to the end or the failure.
type pushOutcome struct {
	err string
	res congest.Result
	tx  []delivered
}

func pushOutcomeOf(res congest.Result, tx []delivered, err error) pushOutcome {
	if err != nil {
		return pushOutcome{err: err.Error(), tx: tx}
	}
	return pushOutcome{res: res, tx: tx}
}

func pushCases(t *testing.T) []pushCase {
	t.Helper()
	families := []struct {
		name     string
		programs func(n int) []congest.NodeProgram
	}{
		{"GossipExact", NewGossipExactPrograms},
		{"CollectSolve", NewCollectSolvePrograms},
		{"Luby", NewLubyPrograms},
		{"RankGreedy", NewRankGreedyPrograms},
		{"LeaderBFS", NewLeaderBFSPrograms},
	}
	rng := rand.New(rand.NewSource(20))
	var cases []pushCase
	for gi := 0; gi < 50; gi++ {
		n := 2 + rng.Intn(22)
		g := allocTestGraph(t, n, 0.05+0.4*rng.Float64(), rng.Int63())
		part := graphs.MustNewPartition(n, 2+rng.Intn(2))
		for u := 0; u < n; u++ {
			part.MustAssign(u, rng.Intn(part.T()))
		}
		base := congest.Config{Seed: rng.Int63()}
		if gi%5 == 4 {
			// Runs that fail: GossipExact and CollectSolve outlast this
			// failsafe on every graph here.
			base.MaxRounds = 3 + gi%4
		}
		for _, fam := range families {
			for _, cut := range []*graphs.Partition{nil, part} {
				cfg := base
				cfg.Cut = cut
				cases = append(cases, pushCase{
					name:     fmt.Sprintf("graph %d (n=%d, cut=%v, max rounds %d)/%s", gi, n, cut != nil, cfg.MaxRounds, fam.name),
					g:        g,
					programs: fam.programs,
					cfg:      cfg,
				})
			}
		}
	}
	return cases
}

// TestPushMatchesInboxDelivery: every program the round loop drives by
// push delivery gives the same run when it is driven through the inbox
// adapter instead, and when its broadcasts are sent as per-neighbour
// unicasts (unicastOnly) — same Stats (cut tally included), Outputs,
// error text and hook transcript — through Network.RunCtx and through one
// RunBatch pass, with and without a cut. The adapter hands Round its inbox
// only after the round's Done() reads, so a loop that read a program's
// Done() after delivering to it would split the two: Luby's Done() reads
// the neighbour states Receive writes. unicastOnly pins the round loop's
// broadcast path to its per-message path: hook, cut tally and Receive
// once per neighbour.
func TestPushMatchesInboxDelivery(t *testing.T) {
	cases := pushCases(t)
	native := func(p []congest.NodeProgram) []congest.NodeProgram { return p }
	runCtx := func(c pushCase, wrap func([]congest.NodeProgram) []congest.NodeProgram) pushOutcome {
		var tx []delivered
		cfg := c.cfg
		cfg.Hook = recordTo(&tx)
		net, err := congest.NewNetwork(c.g, wrap(c.programs(c.g.N())), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.RunCtx(context.Background())
		return pushOutcomeOf(res, tx, err)
	}

	want := make([]pushOutcome, len(cases))
	failures := 0
	for i, c := range cases {
		want[i] = runCtx(c, native)
		if want[i].err != "" {
			failures++
		}
	}
	if failures == 0 || failures == len(cases) {
		t.Fatalf("%d of %d runs failed; the cases must cover both outcomes", failures, len(cases))
	}

	check := func(path string, i int, got pushOutcome) {
		t.Helper()
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: %s: got %q %+v (%d hooked), push RunCtx %q %+v (%d hooked)",
				path, cases[i].name, got.err, got.res.Stats, len(got.tx), want[i].err, want[i].res.Stats, len(want[i].tx))
		}
	}
	wrappings := []struct {
		name string
		wrap func([]congest.NodeProgram) []congest.NodeProgram
	}{{"push", native}, {"inbox", roundOnlyPrograms}, {"unicast", unicastOnlyPrograms}}
	for _, w := range wrappings[1:] {
		for i, c := range cases {
			check(w.name+" RunCtx", i, runCtx(c, w.wrap))
		}
	}
	for _, w := range wrappings {
		items := make([]congest.BatchItem, len(cases))
		txs := make([][]delivered, len(cases))
		for i, c := range cases {
			cfg := c.cfg
			cfg.Hook = recordTo(&txs[i])
			items[i] = congest.BatchItem{Graph: c.g, Programs: w.wrap(c.programs(c.g.N())), Config: cfg}
		}
		results, errs, _ := congest.RunBatch(context.Background(), items)
		for i := range cases {
			check(w.name+" RunBatch", i, pushOutcomeOf(results[i], txs[i], errs[i]))
		}
	}
}
