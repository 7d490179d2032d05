package congest

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// runSolo executes one BatchItem as a dedicated Network — the reference
// the deprecated RunBatch loop must match bit-for-bit.
func runSolo(t *testing.T, item BatchItem) (Result, error) {
	t.Helper()
	net, err := NewNetwork(item.Graph, item.Programs, item.Config)
	if err != nil {
		return Result{}, err
	}
	return net.Run()
}

// batchItems builds a mixed sweep: different graphs, program kinds, seeds
// and termination times, including two items sharing one graph pointer.
func batchItems(t *testing.T) []BatchItem {
	t.Helper()
	shared := ring(t, 12)
	stag := func(n int) []NodeProgram {
		out := make([]NodeProgram, n)
		for i := range out {
			out[i] = &staggered{}
		}
		return out
	}
	return []BatchItem{
		{Graph: shared, Programs: floodPrograms(12), Config: Config{Seed: 3}},
		{Graph: star(t, 9), Programs: floodPrograms(9), Config: Config{Seed: 5}},
		{Graph: shared, Programs: stag(12), Config: Config{Seed: 7}},
		{Graph: ring(t, 5), Programs: stag(5), Config: Config{Seed: 11}},
	}
}

// TestBatchMatchesIndividualRuns: every item of a RunBatch call returns
// the result (and hook transcript) a dedicated Network.Run would, and the
// stats count the items.
func TestBatchMatchesIndividualRuns(t *testing.T) {
	// Reference transcripts from solo runs.
	solo := make([]Result, 4)
	soloTx := make([][]hookRec, 4)
	items := batchItems(t)
	for i := range items {
		i := i
		items[i].Config.Hook = func(round int, msg Message) error {
			soloTx[i] = append(soloTx[i], hookRec{round: round, from: msg.From, to: msg.To, data: string(msg.Data)})
			return nil
		}
		res, err := runSolo(t, items[i])
		if err != nil {
			t.Fatalf("item %d solo: %v", i, err)
		}
		solo[i] = res
	}

	batchTx := make([][]hookRec, 4)
	items = batchItems(t) // fresh programs
	for i := range items {
		i := i
		items[i].Config.Hook = func(round int, msg Message) error {
			batchTx[i] = append(batchTx[i], hookRec{round: round, from: msg.From, to: msg.To, data: string(msg.Data)})
			return nil
		}
	}
	results, errs, stats := RunBatch(context.Background(), items)
	for i := range items {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(solo[i], results[i]) {
			t.Fatalf("item %d diverged:\nsolo  %+v\nbatch %+v", i, solo[i], results[i])
		}
		if !reflect.DeepEqual(soloTx[i], batchTx[i]) {
			t.Fatalf("item %d hook transcript diverged (%d vs %d records)", i, len(soloTx[i]), len(batchTx[i]))
		}
	}
	want := BatchStats{Instances: 4}
	if stats != want {
		t.Fatalf("batch stats %+v, want %+v", stats, want)
	}
}

// TestBatchPerItemErrors: invalid and misbehaving items fail individually
// with the same error strings as solo runs; the healthy items still
// complete with identical results.
func TestBatchPerItemErrors(t *testing.T) {
	g := ring(t, 6)
	bad := func() []NodeProgram {
		programs := make([]NodeProgram, 6)
		programs[0] = &misbehaver{msg: Message{From: 0, To: 3, Data: []byte{1}}}
		for i := 1; i < 6; i++ {
			programs[i] = &silent{}
		}
		return programs
	}
	never := func() []NodeProgram {
		programs := make([]NodeProgram, 6)
		for i := range programs {
			programs[i] = &chatterbox{}
		}
		return programs
	}
	items := []BatchItem{
		{Graph: nil, Programs: nil, Config: Config{}},
		{Graph: g, Programs: bad(), Config: Config{}},
		{Graph: g, Programs: floodPrograms(6), Config: Config{Seed: 9}},
		{Graph: g, Programs: never(), Config: Config{MaxRounds: 10}},
		{Graph: g, Programs: floodPrograms(5), Config: Config{}},
	}
	_, soloBadErr := runSolo(t, BatchItem{Graph: g, Programs: bad(), Config: Config{}})
	soloGood, err := runSolo(t, BatchItem{Graph: g, Programs: floodPrograms(6), Config: Config{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}

	results, errs, stats := RunBatch(context.Background(), items)
	if errs[0] == nil {
		t.Fatal("nil graph accepted")
	}
	if errs[1] == nil || errs[1].Error() != soloBadErr.Error() {
		t.Fatalf("misbehaving item error %q, solo %q", errs[1], soloBadErr)
	}
	if errs[2] != nil {
		t.Fatalf("healthy item failed: %v", errs[2])
	}
	if !reflect.DeepEqual(soloGood, results[2]) {
		t.Fatalf("healthy item diverged:\nsolo  %+v\nbatch %+v", soloGood, results[2])
	}
	if !errors.Is(errs[3], ErrMaxRounds) {
		t.Fatalf("chatterbox item error %v, want ErrMaxRounds", errs[3])
	}
	if errs[4] == nil {
		t.Fatal("program count mismatch accepted")
	}
	if stats.Instances != 5 {
		t.Fatalf("stats %+v: want 5 instances", stats)
	}
}

// TestBatchCancelled: a fired context fails every item with RunCtx's
// cancellation error.
func TestBatchCancelled(t *testing.T) {
	g := ring(t, 6)
	programs := make([]NodeProgram, 6)
	for i := range programs {
		programs[i] = &chatterbox{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs, _ := RunBatch(ctx, []BatchItem{{Graph: g, Programs: programs, Config: Config{}}})
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", errs[0])
	}
}

// TestBatchEmpty: the degenerate call is a no-op, not a panic.
func TestBatchEmpty(t *testing.T) {
	results, errs, stats := RunBatch(context.Background(), nil)
	if len(results) != 0 || len(errs) != 0 || stats.Instances != 0 {
		t.Fatalf("empty batch: results=%d errs=%d stats=%+v", len(results), len(errs), stats)
	}
}
