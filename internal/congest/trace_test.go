package congest

import "testing"

func TestTracerCollectsPerRoundStats(t *testing.T) {
	g := ring(t, 8)
	var tr Tracer
	net, err := NewNetwork(g, floodPrograms(8), Config{Hook: tr.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	result, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	rounds := tr.Rounds()
	if len(rounds) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	messages, bits := tr.Total()
	if messages != result.Stats.Messages {
		t.Fatalf("tracer total %d messages, stats %d", messages, result.Stats.Messages)
	}
	if bits != result.Stats.TotalBits {
		t.Fatalf("tracer total %d bits, stats %d", bits, result.Stats.TotalBits)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Round <= rounds[i-1].Round {
			t.Fatal("rounds out of order")
		}
	}
	peak := tr.PeakRound()
	if peak.Bits == 0 {
		t.Fatal("peak round empty")
	}
	tr.Reset()
	if len(tr.Rounds()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

// TestTracerPipelinedEngine is named for the pipelined engine, which is
// gone. It pins that a run setting the deprecated Parallel and Workers
// fields gives an unlocked Tracer the identical per-round trace.
func TestTracerPipelinedEngine(t *testing.T) {
	var ref Tracer
	net, err := NewNetwork(ring(t, 16), floodPrograms(16), Config{Seed: 21, Hook: ref.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Rounds()

	for _, workers := range []int{2, 4, 8} {
		var tr Tracer
		net, err := NewNetwork(ring(t, 16), floodPrograms(16),
			Config{Seed: 21, Parallel: true, Workers: workers, Hook: tr.Hook()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := tr.Rounds()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d traced rounds, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d round %d: %+v, want %+v", workers, want[i].Round, got[i], want[i])
			}
		}
	}
}

// TestTracerBatchEngine pins the Tracer contract under the deprecated
// RunBatch loop: unlocked per-item Tracers observe exactly the trace a
// dedicated solo run produces, even when the items share one graph.
func TestTracerBatchEngine(t *testing.T) {
	g := ring(t, 12)
	seeds := []int64{3, 7, 21}

	want := make([][]RoundStat, len(seeds))
	for i, seed := range seeds {
		var tr Tracer
		net, err := NewNetwork(g, floodPrograms(12), Config{Seed: seed, Hook: tr.Hook()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		want[i] = tr.Rounds()
	}

	tracers := make([]Tracer, len(seeds))
	items := make([]BatchItem, len(seeds))
	for i, seed := range seeds {
		items[i] = BatchItem{
			Graph:    g,
			Programs: floodPrograms(12),
			Config:   Config{Seed: seed, Hook: tracers[i].Hook()},
		}
	}
	_, errs, _ := RunBatch(nil, items)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	for i := range seeds {
		got := tracers[i].Rounds()
		if len(got) != len(want[i]) {
			t.Fatalf("item %d: %d traced rounds, want %d", i, len(got), len(want[i]))
		}
		for r := range want[i] {
			if got[r] != want[i][r] {
				t.Fatalf("item %d round %d: %+v, want %+v", i, want[i][r].Round, got[r], want[i][r])
			}
		}
	}
}

func TestTracerZeroValue(t *testing.T) {
	var tr Tracer
	if peak := tr.PeakRound(); peak.Bits != 0 || peak.Round != 0 {
		t.Fatal("zero tracer peak not zero")
	}
	m, b := tr.Total()
	if m != 0 || b != 0 {
		t.Fatal("zero tracer totals not zero")
	}
}
