package congest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"congestlb/internal/graphs"
)

// floodMin floods the minimum known node ID; every node outputs the global
// minimum once stable for two rounds. A classic warm-up CONGEST program.
type floodMin struct {
	info   NodeInfo
	min    int
	stable int
	done   bool
}

func (f *floodMin) Init(info NodeInfo) {
	f.info = info
	f.min = info.ID
	f.stable = 0
	f.done = false
}

func (f *floodMin) Round(round int, inbox []Message) []Message {
	changed := false
	for _, m := range inbox {
		got := int(m.Data[0])<<8 | int(m.Data[1])
		if got < f.min {
			f.min = got
			changed = true
		}
	}
	if changed || round == 1 {
		f.stable = 0
	} else {
		f.stable++
	}
	// After n rounds the minimum has reached everyone on a connected graph.
	if round > f.info.N {
		f.done = true
		return nil
	}
	out := make([]Message, 0, len(f.info.Neighbors))
	payload := []byte{byte(f.min >> 8), byte(f.min & 0xFF)}
	for _, v := range f.info.Neighbors {
		out = append(out, Message{From: f.info.ID, To: v, Data: payload})
	}
	return out
}

func (f *floodMin) Done() bool  { return f.done }
func (f *floodMin) Output() any { return f.min }

// silent terminates immediately without sending anything.
type silent struct{ done bool }

func (s *silent) Init(NodeInfo) {}
func (s *silent) Round(int, []Message) []Message {
	s.done = true
	return nil
}
func (s *silent) Done() bool  { return s.done }
func (s *silent) Output() any { return nil }

// misbehaver sends one configurable illegal message then stops.
type misbehaver struct {
	msg  Message
	sent bool
}

func (m *misbehaver) Init(NodeInfo) {}
func (m *misbehaver) Round(int, []Message) []Message {
	if m.sent {
		return nil
	}
	m.sent = true
	return []Message{m.msg}
}
func (m *misbehaver) Done() bool  { return m.sent }
func (m *misbehaver) Output() any { return nil }

// ring builds a cycle of n unit-weight nodes.
func ring(t *testing.T, n int) *graphs.Graph {
	t.Helper()
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.AddNodeID(1)
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	return g
}

func floodPrograms(n int) []NodeProgram {
	programs := make([]NodeProgram, n)
	for i := range programs {
		programs[i] = &floodMin{}
	}
	return programs
}

func TestNewNetworkValidation(t *testing.T) {
	g := ring(t, 4)
	if _, err := NewNetwork(nil, nil, Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewNetwork(g, make([]NodeProgram, 3), Config{}); err == nil {
		t.Fatal("program count mismatch accepted")
	}
	if _, err := NewNetwork(g, make([]NodeProgram, 4), Config{}); err == nil {
		t.Fatal("nil programs accepted")
	}
	if _, err := NewNetwork(g, floodPrograms(4), Config{BandwidthBits: -5}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestFloodMinConverges(t *testing.T) {
	g := ring(t, 9)
	net, err := NewNetwork(g, floodPrograms(9), Config{})
	if err != nil {
		t.Fatal(err)
	}
	result, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	for u, out := range result.Outputs {
		if out.(int) != 0 {
			t.Fatalf("node %d output %v, want 0", u, out)
		}
	}
	if result.Stats.Rounds == 0 || result.Stats.Messages == 0 {
		t.Fatalf("stats look empty: %+v", result.Stats)
	}
	// Each of the 9 alive rounds sends 2 messages per node of 16 bits.
	if result.Stats.TotalBits != result.Stats.Messages*16 {
		t.Fatalf("bit accounting inconsistent: %+v", result.Stats)
	}
	if result.Stats.MaxMessageBits != 16 {
		t.Fatalf("MaxMessageBits = %d, want 16", result.Stats.MaxMessageBits)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := ring(t, 16)
	run := func(parallel bool) Result {
		net, err := NewNetwork(g, floodPrograms(16), Config{Parallel: parallel, Seed: 7})
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
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Fatalf("outputs differ: seq=%v par=%v", seq.Outputs, par.Outputs)
	}
	if seq.Stats != par.Stats {
		t.Fatalf("stats differ: seq=%+v par=%+v", seq.Stats, par.Stats)
	}
}

func TestImmediateTermination(t *testing.T) {
	g := ring(t, 3)
	programs := []NodeProgram{&silent{}, &silent{}, &silent{}}
	net, err := NewNetwork(g, programs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	result, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if result.Stats.Messages != 0 {
		t.Fatalf("silent run sent %d messages", result.Stats.Messages)
	}
	if result.Stats.Rounds != 1 {
		t.Fatalf("silent run took %d rounds, want 1", result.Stats.Rounds)
	}
}

func TestBandwidthEnforced(t *testing.T) {
	g := ring(t, 3)
	big := make([]byte, 100) // 800 bits, far over any sane B
	programs := []NodeProgram{
		&misbehaver{msg: Message{From: 0, To: 1, Data: big}},
		&silent{}, &silent{},
	}
	net, err := NewNetwork(g, programs, Config{BandwidthBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("error = %v, want ErrBandwidthExceeded", err)
	}
}

func TestNonNeighborRejected(t *testing.T) {
	g := ring(t, 5) // 0 and 2 are not adjacent
	programs := []NodeProgram{
		&misbehaver{msg: Message{From: 0, To: 2, Data: []byte{1}}},
		&silent{}, &silent{}, &silent{}, &silent{},
	}
	net, err := NewNetwork(g, programs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err == nil {
		t.Fatal("non-neighbour send accepted")
	}
}

func TestForgedSenderRejected(t *testing.T) {
	g := ring(t, 3)
	programs := []NodeProgram{
		&misbehaver{msg: Message{From: 2, To: 1, Data: []byte{1}}},
		&silent{}, &silent{},
	}
	net, err := NewNetwork(g, programs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err == nil {
		t.Fatal("forged sender accepted")
	}
}

func TestDuplicateMessageRejected(t *testing.T) {
	g := ring(t, 3)
	dup := &duplicateSender{}
	programs := []NodeProgram{dup, &silent{}, &silent{}}
	net, err := NewNetwork(g, programs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err == nil {
		t.Fatal("duplicate messages to one neighbour accepted")
	}
}

type duplicateSender struct{ sent bool }

func (d *duplicateSender) Init(NodeInfo) {}
func (d *duplicateSender) Round(int, []Message) []Message {
	d.sent = true
	return []Message{
		{From: 0, To: 1, Data: []byte{1}},
		{From: 0, To: 1, Data: []byte{2}},
	}
}
func (d *duplicateSender) Done() bool  { return d.sent }
func (d *duplicateSender) Output() any { return nil }

// chatterbox never terminates.
type chatterbox struct{ info NodeInfo }

func (c *chatterbox) Init(info NodeInfo) { c.info = info }
func (c *chatterbox) Round(int, []Message) []Message {
	out := make([]Message, 0, len(c.info.Neighbors))
	for _, v := range c.info.Neighbors {
		out = append(out, Message{From: c.info.ID, To: v, Data: []byte{0}})
	}
	return out
}
func (c *chatterbox) Done() bool  { return false }
func (c *chatterbox) Output() any { return nil }

func TestMaxRoundsAborts(t *testing.T) {
	g := ring(t, 3)
	programs := []NodeProgram{&chatterbox{}, &chatterbox{}, &chatterbox{}}
	net, err := NewNetwork(g, programs, Config{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("error = %v, want ErrMaxRounds", err)
	}
}

// TestRunCtxCancelStopsRoundLoop: a cancelled context aborts a
// non-terminating run at a round boundary with the context's error —
// before the MaxRounds failsafe would fire.
func TestRunCtxCancelStopsRoundLoop(t *testing.T) {
	g := ring(t, 3)
	programs := []NodeProgram{&chatterbox{}, &chatterbox{}, &chatterbox{}}
	net, err := NewNetwork(g, programs, Config{MaxRounds: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// And a background context leaves behaviour untouched: same run, same
	// MaxRounds abort as Run.
	net2, err := NewNetwork(g, []NodeProgram{&chatterbox{}, &chatterbox{}, &chatterbox{}}, Config{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net2.RunCtx(context.Background()); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("error = %v, want ErrMaxRounds", err)
	}
}

func TestHookSeesEveryMessage(t *testing.T) {
	g := ring(t, 6)
	var hooked int64
	var hookedBits int64
	cfg := Config{Hook: func(round int, msg Message) error {
		hooked++
		hookedBits += msg.Bits()
		return nil
	}}
	net, err := NewNetwork(g, floodPrograms(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	result, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hooked != result.Stats.Messages {
		t.Fatalf("hook saw %d messages, stats say %d", hooked, result.Stats.Messages)
	}
	if hookedBits != result.Stats.TotalBits {
		t.Fatalf("hook saw %d bits, stats say %d", hookedBits, result.Stats.TotalBits)
	}
}

func TestHookErrorAborts(t *testing.T) {
	g := ring(t, 4)
	boom := errors.New("boom")
	cfg := Config{Hook: func(int, Message) error { return boom }}
	net, err := NewNetwork(g, floodPrograms(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
}

func TestDefaultBandwidthGrowsLogarithmically(t *testing.T) {
	if DefaultBandwidth(2) <= 0 {
		t.Fatal("bandwidth must be positive")
	}
	if DefaultBandwidth(1<<10) >= DefaultBandwidth(1<<20) {
		t.Fatal("bandwidth should grow with n")
	}
	// B = 32·ceil(log2(n+2)): for n=1022, log2(1024)=10 → 320.
	if got := DefaultBandwidth(1022); got != 320 {
		t.Fatalf("DefaultBandwidth(1022) = %d, want 320", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	g := ring(t, 8)
	run := func(seed int64) Stats {
		net, err := NewNetwork(g, floodPrograms(8), Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		result, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return result.Stats
	}
	if run(1) != run(1) {
		t.Fatal("same seed, different stats")
	}
}

func BenchmarkFloodRing256(b *testing.B) {
	g := graphs.New(256)
	for i := 0; i < 256; i++ {
		g.AddNodeID(1)
	}
	for i := 0; i < 256; i++ {
		g.MustAddEdge(i, (i+1)%256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(g, floodPrograms(256), Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// star builds a hub-and-spoke graph: node 0 adjacent to all others.
func star(t *testing.T, n int) *graphs.Graph {
	t.Helper()
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.AddNodeID(1)
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
	}
	return g
}

// TestRunStateRetainedAcrossRuns re-runs one Network and requires identical
// results — the retained outboxes and inbox adapters must be invisible.
func TestRunStateRetainedAcrossRuns(t *testing.T) {
	g := ring(t, 48)
	net, err := NewNetwork(g, floodPrograms(48), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-run diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// staggered sends its ID to every neighbour for id%4+1 rounds, then
// terminates — nodes drop out of the round loop at different times.
type staggered struct {
	info NodeInfo
	last int
	done bool
}

func (s *staggered) Init(info NodeInfo) {
	s.info = info
	s.last = info.ID%4 + 1
	s.done = false
}

func (s *staggered) Round(round int, inbox []Message) []Message {
	if round > s.last {
		s.done = true
		return nil
	}
	out := make([]Message, 0, len(s.info.Neighbors))
	for _, v := range s.info.Neighbors {
		out = append(out, Message{From: s.info.ID, To: v, Data: []byte{byte(s.info.ID), byte(round)}})
	}
	return out
}

func (s *staggered) Done() bool  { return s.done }
func (s *staggered) Output() any { return s.last }

// hookRec is one hook observation; the transcript — the ordered sequence
// of hookRecs — is the run-equivalence currency of these tests.
type hookRec struct {
	round    int
	from, to int
	data     string
}

// runTranscript executes one run recording the full hook transcript.
func runTranscript(t *testing.T, g *graphs.Graph, programs []NodeProgram, cfg Config) (Result, []hookRec, error) {
	t.Helper()
	var tx []hookRec
	userHook := cfg.Hook
	cfg.Hook = func(round int, msg Message) error {
		tx = append(tx, hookRec{round: round, from: msg.From, to: msg.To, data: string(msg.Data)})
		if userHook != nil {
			return userHook(round, msg)
		}
		return nil
	}
	net, err := NewNetwork(g, programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	result, err := net.Run()
	return result, tx, err
}

// The TestPipeline* tests below are named for the pipelined engine they
// once pinned to the sequential one. That engine is gone, and
// Config.Parallel and Config.Workers are deprecated and ignored; the
// tests now pin that setting them changes nothing — results, stats, hook
// transcripts and error strings — for as long as the fields exist.

// TestPipelineMatchesSequential: result, stats and the complete message
// transcript are identical with and without Parallel at workers 1, 2, 4
// and 8, on a uniform ring and a hub-skewed star, for uniform and
// staggered termination.
func TestPipelineMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		g        *graphs.Graph
		programs func(n int) []NodeProgram
	}{
		{"ring/flood", ring(t, 24), floodPrograms},
		{"star/flood", star(t, 25), floodPrograms},
		{"ring/staggered", ring(t, 24), func(n int) []NodeProgram {
			out := make([]NodeProgram, n)
			for i := range out {
				out[i] = &staggered{}
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			seqRes, seqTx, err := runTranscript(t, tc.g, tc.programs(n), Config{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					res, tx, err := runTranscript(t, tc.g, tc.programs(n),
						Config{Seed: 7, Parallel: true, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(seqRes, res) {
						t.Fatalf("result diverged:\nseq %+v\nparallel %+v", seqRes, res)
					}
					if !reflect.DeepEqual(seqTx, tx) {
						t.Fatalf("hook transcript diverged (%d vs %d records)", len(seqTx), len(tx))
					}
				})
			}
		})
	}
}

// TestPipelineErrorsMatchSequential: every validation failure mode gives
// the same error string with and without Parallel, and the error reported
// is the first in sender order when two nodes misbehave.
func TestPipelineErrorsMatchSequential(t *testing.T) {
	mkPrograms := func(n int, bad map[int]Message) []NodeProgram {
		programs := make([]NodeProgram, n)
		for i := range programs {
			if msg, ok := bad[i]; ok {
				programs[i] = &misbehaver{msg: msg}
			} else {
				programs[i] = &silent{}
			}
		}
		return programs
	}
	cases := []struct {
		name string
		bad  map[int]Message
	}{
		{"forged", map[int]Message{2: {From: 5, To: 3, Data: []byte{1}}}},
		{"non-neighbour", map[int]Message{2: {From: 2, To: 7, Data: []byte{1}}}},
		{"bandwidth", map[int]Message{2: {From: 2, To: 3, Data: make([]byte, 100)}}},
		// Two misbehavers: node 3's error must win over node 13's.
		{"first-in-sender-order", map[int]Message{
			3:  {From: 3, To: 9, Data: []byte{1}},
			13: {From: 13, To: 2, Data: []byte{1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := ring(t, 16)
			seqNet, err := NewNetwork(g, mkPrograms(16, tc.bad), Config{})
			if err != nil {
				t.Fatal(err)
			}
			_, seqErr := seqNet.Run()
			if seqErr == nil {
				t.Fatal("sequential run accepted the bad message")
			}
			for _, workers := range []int{2, 4, 8} {
				net, err := NewNetwork(g, mkPrograms(16, tc.bad), Config{Parallel: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				_, parErr := net.Run()
				if parErr == nil || parErr.Error() != seqErr.Error() {
					t.Fatalf("workers=%d error %q, sequential %q", workers, parErr, seqErr)
				}
			}
		})
	}
}

// TestPipelineDuplicateRejected covers the duplicate check separately:
// duplicateSender hardcodes From: 0, so it must sit at node 0.
func TestPipelineDuplicateRejected(t *testing.T) {
	g := ring(t, 8)
	mk := func() []NodeProgram {
		programs := make([]NodeProgram, 8)
		programs[0] = &duplicateSender{}
		for i := 1; i < 8; i++ {
			programs[i] = &silent{}
		}
		return programs
	}
	seqNet, _ := NewNetwork(g, mk(), Config{})
	_, seqErr := seqNet.Run()
	net, _ := NewNetwork(g, mk(), Config{Parallel: true, Workers: 4})
	if _, err := net.Run(); err == nil || err.Error() != seqErr.Error() {
		t.Fatalf("parallel error %q, sequential %q", err, seqErr)
	}
}

// TestPipelineMaxRounds: the failsafe fires with the same error and the
// same hook transcript, covering rounds 1..MaxRounds, with and without
// Parallel.
func TestPipelineMaxRounds(t *testing.T) {
	mk := func(n int) []NodeProgram {
		programs := make([]NodeProgram, n)
		for i := range programs {
			programs[i] = &chatterbox{}
		}
		return programs
	}
	g := ring(t, 12)
	_, seqTx, seqErr := runTranscript(t, g, mk(12), Config{MaxRounds: 10})
	if !errors.Is(seqErr, ErrMaxRounds) {
		t.Fatalf("sequential error = %v", seqErr)
	}
	_, tx, err := runTranscript(t, g, mk(12), Config{MaxRounds: 10, Parallel: true, Workers: 4})
	if !errors.Is(err, ErrMaxRounds) || err.Error() != seqErr.Error() {
		t.Fatalf("parallel error %q, sequential %q", err, seqErr)
	}
	if !reflect.DeepEqual(seqTx, tx) {
		t.Fatalf("transcript diverged on MaxRounds abort: %d vs %d records", len(seqTx), len(tx))
	}
}

// TestPipelineCancel: a cancelled context aborts a run that sets Parallel
// with the context's error.
func TestPipelineCancel(t *testing.T) {
	g := ring(t, 12)
	programs := make([]NodeProgram, 12)
	for i := range programs {
		programs[i] = &chatterbox{}
	}
	net, err := NewNetwork(g, programs, Config{Parallel: true, Workers: 4, MaxRounds: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestPipelineHookErrorAborts: hook failures abort with the wrapped error
// when Parallel is set too.
func TestPipelineHookErrorAborts(t *testing.T) {
	g := ring(t, 8)
	boom := errors.New("boom")
	cfg := Config{Parallel: true, Workers: 4, Hook: func(int, Message) error { return boom }}
	net, err := NewNetwork(g, floodPrograms(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
}

// TestPipelineRunStateRetainedAcrossRuns: repeated runs on one Network
// that sets Parallel reuse the retained buffers invisibly.
func TestPipelineRunStateRetainedAcrossRuns(t *testing.T) {
	g := ring(t, 24)
	net, err := NewNetwork(g, floodPrograms(24), Config{Seed: 7, Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-run diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}
