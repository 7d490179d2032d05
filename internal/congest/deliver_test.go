package congest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"congestlb/internal/graphs"
)

// The round loop validates an outbox by walking the sender's sorted
// neighbour list while the destinations ascend, and falls back to
// validateMsg at the first send that does not; it expands a broadcast over
// the sender's adjacency row with one bandwidth check. These tests pin
// both to a reference loop that validates every message with validateMsg,
// on random graphs, on outboxes that break every sending rule right after
// a legal, in-order prefix, and on broadcasts that break them.

// scriptBandwidth is B for the scripted runs: legal payloads are at most
// 3 bytes, the oversize one is 5.
const scriptBandwidth = 32

// scripted sends, for a few rounds, outboxes drawn from its generator:
// mostly legal ones (empty, in neighbour order, shuffled, in order with
// the last two swapped) and, with probability 1/bad, one that breaks a
// sending rule after an in-order prefix. Its output digests everything it
// received, in delivery order.
type scripted struct {
	info   NodeInfo
	bad    int
	rounds int
	digest uint64
	done   bool
}

func (s *scripted) Init(info NodeInfo) {
	s.info = info
	s.rounds = 1 + info.Rand.Intn(4)
}

func (s *scripted) Round(round int, inbox []Message) []Message {
	var out []Message
	for _, m := range inbox {
		s.digest = s.digest*1099511628211 ^ uint64(round)<<32 ^ uint64(m.From)<<16 ^ uint64(m.To)
		for _, b := range m.Data {
			s.digest = s.digest*31 + uint64(b)
		}
	}
	if round > s.rounds {
		s.done = true
		return out
	}
	r, u, nbrs := s.info.Rand, s.info.ID, s.info.Neighbors
	payload := func() []byte {
		n := 1 + r.Intn(3)
		if r.Intn(64) == 0 {
			n = 0
		}
		data := make([]byte, n)
		r.Read(data)
		return data
	}
	send := func(to int) { out = append(out, Message{From: u, To: to, Data: payload()}) }
	// sorted returns a random non-empty (if possible) ascending subset of
	// the neighbours.
	sorted := func() []int {
		var sub []int
		for _, v := range nbrs {
			if r.Intn(3) != 0 {
				sub = append(sub, v)
			}
		}
		if len(sub) == 0 && len(nbrs) > 0 {
			sub = append(sub, nbrs[r.Intn(len(nbrs))])
		}
		return sub
	}
	prefix := func() []int {
		sub := sorted()
		for _, v := range sub {
			send(v)
		}
		return sub
	}

	if r.Intn(s.bad) != 0 {
		switch r.Intn(4) {
		case 0: // empty
		case 1:
			prefix()
		case 2:
			sub := sorted()
			r.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			for _, v := range sub {
				send(v)
			}
		case 3:
			sub := sorted()
			if k := len(sub); k >= 2 {
				sub[k-2], sub[k-1] = sub[k-1], sub[k-2]
			}
			for _, v := range sub {
				send(v)
			}
		}
		return out
	}
	switch r.Intn(8) {
	case 0: // a duplicate after an in-order prefix: [1,3,1]
		if sub := prefix(); len(sub) > 0 {
			send(sub[r.Intn(len(sub))])
		}
	case 1: // an adjacent duplicate: [3,3]
		if sub := prefix(); len(sub) > 0 {
			send(sub[len(sub)-1])
		}
	case 2: // a non-neighbour (or the sender itself) inside an ascending run
		w := r.Intn(s.info.N)
		for len(nbrs) < s.info.N-1 && slices.Contains(nbrs, w) {
			w = r.Intn(s.info.N)
		}
		sent := false
		for _, v := range sorted() {
			if !sent && w < v {
				send(w)
				sent = true
			}
			send(v)
		}
		if !sent {
			send(w)
		}
	case 3:
		prefix()
		send(-1)
	case 4:
		prefix()
		send(s.info.N)
	case 5: // a forged sender after an in-order prefix
		prefix()
		if len(nbrs) > 0 {
			out = append(out, Message{From: (u + 1) % s.info.N, To: nbrs[0], Data: []byte{1}})
		}
	case 6: // an oversize payload after an in-order prefix
		if sub := prefix(); len(sub) > 0 {
			out = append(out, Message{From: u, To: sub[len(sub)-1], Data: make([]byte, scriptBandwidth/8+1)})
		}
	case 7: // an oversize payload to a later neighbour
		sub := prefix()
		if len(sub) > 0 && sub[len(sub)-1] != nbrs[len(nbrs)-1] {
			out = append(out, Message{From: u, To: nbrs[len(nbrs)-1], Data: make([]byte, scriptBandwidth/8+1)})
		}
	}
	return out
}

func (s *scripted) Done() bool  { return s.done }
func (s *scripted) Output() any { return s.digest }

func scriptedPrograms(n, bad int) []NodeProgram {
	programs := make([]NodeProgram, n)
	for i := range programs {
		programs[i] = &scripted{bad: bad}
	}
	return programs
}

// referenceRun is the round loop with no fast path: every message goes
// through validateMsg, then the Stats, the cut tally and the hook, in
// that order. Programs get fresh neighbour lists and run through Round.
func referenceRun(g *graphs.Graph, programs []NodeProgram, cfg Config) (Result, error) {
	size := g.N()
	bw := cfg.BandwidthBits
	if bw == 0 {
		bw = DefaultBandwidth(size)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*size*size + 64
	}
	for u, p := range programs {
		p.Init(NodeInfo{ID: u, Weight: g.Weight(u), Neighbors: g.Neighbors(u), N: size, Rand: nodeRand(cfg.Seed, u)})
	}
	inboxes := make([][]Message, size)
	seen := make([]int64, size)
	var stamp int64
	var st Stats
	for round := 1; ; round++ {
		if round > maxRounds {
			return Result{}, fmt.Errorf("%w: %d", ErrMaxRounds, maxRounds)
		}
		allDone := true
		for _, p := range programs {
			allDone = allDone && p.Done()
		}
		if allDone {
			st.Rounds = round - 1
			outputs := make([]any, size)
			for u, p := range programs {
				outputs[u] = p.Output()
			}
			return Result{Stats: st, Outputs: outputs}, nil
		}
		outboxes := make([][]Message, size)
		for u, p := range programs {
			if !p.Done() {
				outboxes[u] = p.Round(round, inboxes[u])
			}
		}
		next := make([][]Message, size)
		for u := range outboxes {
			stamp++
			for _, msg := range outboxes[u] {
				if err := validateMsg(g, bw, u, msg, round, seen, stamp); err != nil {
					return Result{}, err
				}
				st.Messages++
				st.TotalBits += msg.Bits()
				st.MaxMessageBits = max(st.MaxMessageBits, msg.Bits())
				if cfg.Cut != nil && cfg.Cut.Of(msg.From) != cfg.Cut.Of(msg.To) {
					if msg.Bits() == 0 {
						return Result{}, errors.New("congest: hook: cc: write of 0 bits")
					}
					st.CutBits += msg.Bits()
					st.CutMessages++
				}
				delivered := Message{From: msg.From, To: msg.To, Data: append([]byte(nil), msg.Data...)}
				if cfg.Hook != nil {
					if err := cfg.Hook(round, delivered); err != nil {
						return Result{}, fmt.Errorf("congest: hook: %w", err)
					}
				}
				next[msg.To] = append(next[msg.To], delivered)
			}
		}
		inboxes = next
	}
}

// outcome is one run's observable result: the hook transcript, and the
// error text or the Result.
type outcome struct {
	err string
	res Result
	tx  []hookRec
}

func recorder(tx *[]hookRec) MessageHook {
	return func(round int, msg Message) error {
		*tx = append(*tx, hookRec{round: round, from: msg.From, to: msg.To, data: string(msg.Data)})
		return nil
	}
}

func outcomeOf(res Result, tx []hookRec, err error) outcome {
	if err != nil {
		return outcome{err: err.Error(), tx: tx}
	}
	return outcome{res: res, tx: tx}
}

// scriptedRun is one differential case: a graph, a config (with or
// without a cut) and the malformed-outbox rate of its programs.
type scriptedRun struct {
	g   *graphs.Graph
	cfg Config
	bad int
}

func randomGraph(rng *rand.Rand, n int, p float64) *graphs.Graph {
	g := graphs.New(n)
	for u := 0; u < n; u++ {
		g.AddNodeID(1)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

func scriptedRuns(t *testing.T) []scriptedRun {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	var runs []scriptedRun
	for gi := 0; gi < 24; gi++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.05+0.5*rng.Float64())
		for k := 0; k < 8; k++ {
			cfg := Config{BandwidthBits: scriptBandwidth, Seed: rng.Int63()}
			if k%2 == 1 {
				part := graphs.MustNewPartition(n, 2+rng.Intn(2))
				for u := 0; u < n; u++ {
					part.MustAssign(u, rng.Intn(part.T()))
				}
				cfg.Cut = part
			}
			runs = append(runs, scriptedRun{g: g, cfg: cfg, bad: 2 + rng.Intn(60)})
		}
	}
	return runs
}

// TestOrderedSendsMatchPerMessageValidation runs every scripted case
// through the reference loop, Network.RunCtx and one RunBatch call: each
// run must give the reference's hook transcript, and its error string or
// its Result (Stats with the cut tally, outputs). A failing run's
// transcript pins where it failed: a send is refused before the hook
// sees it, and the sends before it were delivered. Every error kind must
// occur, and so must runs that succeed.
func TestOrderedSendsMatchPerMessageValidation(t *testing.T) {
	runs := scriptedRuns(t)
	want := make([]outcome, len(runs))
	for i, r := range runs {
		var tx []hookRec
		cfg := r.cfg
		cfg.Hook = recorder(&tx)
		res, err := referenceRun(r.g, scriptedPrograms(r.g.N(), r.bad), cfg)
		want[i] = outcomeOf(res, tx, err)
	}

	kinds := map[string]int{}
	for _, w := range want {
		kind := "ok"
		for _, k := range []string{"forged", "non-neighbour", "two messages", "exceeds bandwidth", "write of 0 bits"} {
			if strings.Contains(w.err, k) {
				kind = k
			}
		}
		if w.err != "" && kind == "ok" {
			t.Fatalf("unexpected reference error %q", w.err)
		}
		kinds[kind]++
	}
	for _, k := range []string{"ok", "forged", "non-neighbour", "two messages", "exceeds bandwidth", "write of 0 bits"} {
		if kinds[k] == 0 {
			t.Fatalf("no scripted run ended %q (outcomes %v)", k, kinds)
		}
	}
	t.Logf("reference outcomes: %v", kinds)

	check := func(engine string, i int, got outcome) {
		t.Helper()
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s run %d (n=%d, cut=%v): got %q %+v (%d hooked), reference %q %+v (%d hooked)",
				engine, i, runs[i].g.N(), runs[i].cfg.Cut != nil,
				got.err, got.res.Stats, len(got.tx), want[i].err, want[i].res.Stats, len(want[i].tx))
		}
	}
	for i, r := range runs {
		var tx []hookRec
		cfg := r.cfg
		cfg.Hook = recorder(&tx)
		net, err := NewNetwork(r.g, scriptedPrograms(r.g.N(), r.bad), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.RunCtx(context.Background())
		check("RunCtx", i, outcomeOf(res, tx, err))
	}

	items := make([]BatchItem, len(runs))
	txs := make([][]hookRec, len(runs))
	for i, r := range runs {
		cfg := r.cfg
		cfg.Hook = recorder(&txs[i])
		items[i] = BatchItem{Graph: r.g, Programs: scriptedPrograms(r.g.N(), r.bad), Config: cfg}
	}
	results, errs, _ := RunBatch(context.Background(), items)
	for i := range runs {
		check("RunBatch", i, outcomeOf(results[i], txs[i], errs[i]))
	}
}

// TestNeighborListsAreCopies: a program that overwrites the neighbour
// list it was given cannot change what the engine accepts — a send to a
// non-neighbour is still refused.
func TestNeighborListsAreCopies(t *testing.T) {
	g := ring(t, 5)
	programs := []NodeProgram{&rewriter{}, &silent{}, &silent{}, &silent{}, &silent{}}
	net, err := NewNetwork(g, programs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = net.Run()
	if want := "congest: node 0 sent to non-neighbour 2 in round 1"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

// rewriter overwrites its neighbour list with {1, 2} and sends to both.
type rewriter struct {
	info NodeInfo
	done bool
}

func (r *rewriter) Init(info NodeInfo) { r.info = info }
func (r *rewriter) Round(int, []Message) []Message {
	r.done = true
	r.info.Neighbors[0], r.info.Neighbors[1] = 1, 2
	return []Message{{From: 0, To: r.info.Neighbors[0], Data: []byte{1}}, {From: 0, To: r.info.Neighbors[1], Data: []byte{1}}}
}
func (r *rewriter) Done() bool  { return r.done }
func (r *rewriter) Output() any { return nil }

// TestCutTally: with a Cut, Stats counts exactly the delivered messages
// whose endpoints have different owners; a Cut that does not cover the
// graph is refused before the run.
func TestCutTally(t *testing.T) {
	g := ring(t, 6)
	part := graphs.MustNewPartition(6, 2)
	for u := 3; u < 6; u++ {
		part.MustAssign(u, 1)
	}
	net, err := NewNetwork(g, floodPrograms(6), Config{Cut: part})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Two cut edges ({2,3} and {5,0}), both directions, one 16-bit message
	// per direction in each of the 6 sending rounds.
	if want := int64(2 * 2 * 6); res.Stats.CutMessages != want || res.Stats.CutBits != 16*want {
		t.Fatalf("cut tally %d messages / %d bits, want %d / %d", res.Stats.CutMessages, res.Stats.CutBits, want, 16*want)
	}
	if _, err := NewNetwork(g, floodPrograms(6), Config{Cut: graphs.MustNewPartition(5, 2)}); err == nil {
		t.Fatal("a cut over 5 nodes accepted for 6")
	}
}

// counter is a PushProgram that sends its ID to every neighbour until its
// Send in round stop, then reports done; its output is the number of
// messages Receive got. Nodes stop at different rounds, so neighbours keep
// sending to a node that is done. With bcast set it sends the ID as its
// broadcast, else as one unicast per neighbour.
type counter struct {
	info     NodeInfo
	bcast    bool
	stop     int
	received int
	done     bool
}

func (c *counter) Init(info NodeInfo) {
	*c = counter{info: info, bcast: c.bcast, stop: 1 + info.ID%3}
}

func (c *counter) Receive(int, Message) { c.received++ }

func (c *counter) Send(round int, out []Message) ([]Message, []byte) {
	c.done = round >= c.stop
	payload := []byte{byte(c.info.ID)}
	if c.bcast {
		return out, payload
	}
	for _, v := range c.info.Neighbors {
		out = append(out, Message{From: c.info.ID, To: v, Data: payload})
	}
	return out, nil
}

func (c *counter) Round(round int, inbox []Message) []Message {
	for _, m := range inbox {
		c.Receive(round-1, m)
	}
	out, data := c.Send(round, nil)
	return ExpandSend(c.info.ID, c.info.Neighbors, out, data)
}

func (c *counter) Done() bool  { return c.done }
func (c *counter) Output() any { return c.received }

// TestReceiveSkipsNodesDone: a node that reported done after its Send gets
// no Receive calls for that round's messages — the inbox loop never
// consumed them either — while the messages still count in the Stats and
// reach the hook. Push delivery through RunCtx and RunBatch must give the
// reference inbox loop's outputs, Stats and transcript, whether the nodes
// send per-neighbour unicasts or broadcasts.
func TestReceiveSkipsNodesDone(t *testing.T) {
	for _, bcast := range []bool{false, true} {
		programs := func(n int) []NodeProgram {
			out := make([]NodeProgram, n)
			for i := range out {
				out[i] = &counter{bcast: bcast}
			}
			return out
		}
		g := ring(t, 7)
		var refTx []hookRec
		want, err := referenceRun(g, programs(7), Config{Hook: recorder(&refTx)})
		if err != nil {
			t.Fatal(err)
		}
		var tx []hookRec
		net, err := NewNetwork(g, programs(7), Config{Hook: recorder(&tx)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(tx, refTx) {
			t.Fatalf("broadcast %v: RunCtx: %+v (%d hooked), reference %+v (%d hooked)", bcast, got, len(tx), want, len(refTx))
		}
		var batchTx []hookRec
		results, errs, _ := RunBatch(context.Background(), []BatchItem{{Graph: g, Programs: programs(7), Config: Config{Hook: recorder(&batchTx)}}})
		if errs[0] != nil || !reflect.DeepEqual(results[0], want) || !reflect.DeepEqual(batchTx, refTx) {
			t.Fatalf("broadcast %v: RunBatch: %+v %v, reference %+v", bcast, results[0], errs[0], want)
		}
	}
}

// caster broadcasts for a few rounds: mostly 1–3 random bytes and, with
// probability 1/bad, a 0-byte or an oversize broadcast, or a legal
// broadcast with one unicast beside it (to a neighbour, to a
// non-neighbour or with a forged sender). Its Round is the Send result
// expanded, the unicast after the broadcast, which the reference loop
// validates message by message. Its output digests everything it
// received, in delivery order.
type caster struct {
	info   NodeInfo
	bad    int
	rounds int
	digest uint64
	done   bool
	buf    []byte
	// isolatedOversize counts the oversize broadcasts of nodes with no
	// neighbours, shared by the programs of one run.
	isolatedOversize *int
}

func (c *caster) Init(info NodeInfo) {
	c.info = info
	c.rounds = 1 + info.Rand.Intn(4)
	c.buf = make([]byte, scriptBandwidth/8+1)
}

func (c *caster) Receive(round int, m Message) {
	c.digest = c.digest*1099511628211 ^ uint64(round)<<32 ^ uint64(m.From)<<16 ^ uint64(m.To)
	for _, b := range m.Data {
		c.digest = c.digest*31 + uint64(b)
	}
}

func (c *caster) Send(round int, out []Message) ([]Message, []byte) {
	if round > c.rounds {
		c.done = true
		return out, nil
	}
	r, u, nbrs := c.info.Rand, c.info.ID, c.info.Neighbors
	size := 1 + r.Intn(3)
	if len(nbrs) == 0 && r.Intn(2) == 0 {
		size = len(c.buf)
	}
	if r.Intn(c.bad) == 0 {
		switch r.Intn(5) {
		case 0:
			size = 0
		case 1:
			size = len(c.buf)
		case 2: // a second message to a neighbour
			if len(nbrs) > 0 {
				out = append(out, Message{From: u, To: nbrs[r.Intn(len(nbrs))], Data: []byte{1}})
			}
		case 3: // a non-neighbour: the sender itself, another node, or out of range
			w := r.Intn(c.info.N+2) - 1
			for w >= 0 && w < c.info.N && slices.Contains(nbrs, w) {
				w = r.Intn(c.info.N+2) - 1
			}
			out = append(out, Message{From: u, To: w, Data: []byte{1}})
		case 4: // a forged sender
			out = append(out, Message{From: (u + 1) % c.info.N, To: r.Intn(c.info.N), Data: []byte{1}})
		}
	}
	data := c.buf[:size]
	r.Read(data)
	if size > scriptBandwidth/8 && len(nbrs) == 0 {
		(*c.isolatedOversize)++
	}
	return out, data
}

func (c *caster) Round(round int, inbox []Message) []Message {
	for _, m := range inbox {
		c.Receive(round-1, m)
	}
	out, data := c.Send(round, nil)
	return ExpandSend(c.info.ID, c.info.Neighbors, out, data)
}

func (c *caster) Done() bool  { return c.done }
func (c *caster) Output() any { return c.digest }

func casterPrograms(n, bad int, isolatedOversize *int) []NodeProgram {
	programs := make([]NodeProgram, n)
	for i := range programs {
		programs[i] = &caster{bad: bad, isolatedOversize: isolatedOversize}
	}
	return programs
}

// TestBroadcastMatchesPerMessageValidation runs broadcasting programs on
// the scripted cases: the reference loop validates the per-neighbour
// messages their Round returns one by one, and Network.RunCtx and one
// RunBatch call, which get the broadcast from Send, must give the
// reference's hook transcript and its error string or Result. Every
// error kind must occur, and so must runs that succeed; so must a
// successful run in which a node with no neighbours broadcast an oversize
// payload, which no neighbour receives and so, like an empty
// per-neighbour loop, breaks no rule.
func TestBroadcastMatchesPerMessageValidation(t *testing.T) {
	runs := scriptedRuns(t)
	want := make([]outcome, len(runs))
	isolated := make([]int, len(runs))
	kinds := map[string]int{}
	for i, r := range runs {
		var tx []hookRec
		cfg := r.cfg
		cfg.Hook = recorder(&tx)
		res, err := referenceRun(r.g, casterPrograms(r.g.N(), r.bad, &isolated[i]), cfg)
		want[i] = outcomeOf(res, tx, err)
		kind := "ok"
		for _, k := range []string{"forged", "non-neighbour", "two messages", "exceeds bandwidth", "write of 0 bits"} {
			if strings.Contains(want[i].err, k) {
				kind = k
			}
		}
		if want[i].err != "" && kind == "ok" {
			t.Fatalf("unexpected reference error %q", want[i].err)
		}
		kinds[kind]++
		if kind == "ok" && isolated[i] > 0 {
			kinds["isolated oversize"]++
		}
	}
	for _, k := range []string{"ok", "forged", "non-neighbour", "two messages", "exceeds bandwidth", "write of 0 bits", "isolated oversize"} {
		if kinds[k] == 0 {
			t.Fatalf("no broadcast run ended %q (outcomes %v)", k, kinds)
		}
	}
	t.Logf("reference outcomes: %v", kinds)

	check := func(engine string, i int, got outcome) {
		t.Helper()
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s run %d (n=%d, cut=%v): got %q %+v (%d hooked), reference %q %+v (%d hooked)",
				engine, i, runs[i].g.N(), runs[i].cfg.Cut != nil,
				got.err, got.res.Stats, len(got.tx), want[i].err, want[i].res.Stats, len(want[i].tx))
		}
	}
	var ignored int
	for i, r := range runs {
		var tx []hookRec
		cfg := r.cfg
		cfg.Hook = recorder(&tx)
		net, err := NewNetwork(r.g, casterPrograms(r.g.N(), r.bad, &ignored), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.RunCtx(context.Background())
		check("RunCtx", i, outcomeOf(res, tx, err))
	}

	items := make([]BatchItem, len(runs))
	txs := make([][]hookRec, len(runs))
	for i, r := range runs {
		cfg := r.cfg
		cfg.Hook = recorder(&txs[i])
		items[i] = BatchItem{Graph: r.g, Programs: casterPrograms(r.g.N(), r.bad, &ignored), Config: cfg}
	}
	results, errs, _ := RunBatch(context.Background(), items)
	for i := range runs {
		check("RunBatch", i, outcomeOf(results[i], txs[i], errs[i]))
	}
}
