package fault

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func install(t *testing.T, spec string) {
	t.Helper()
	in, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	prev := Set(in)
	t.Cleanup(func() { Set(prev) })
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",                  // no seed separator
		"disk-read",         // no seed
		"x:disk-read",       // non-numeric seed
		"1:",                // empty plan
		"1:frobnicate",      // unknown point
		"1:disk-read=2",     // rate out of range
		"1:disk-read=-0.5",  // negative rate
		"1:disk-read=NaN",   // NaN rate
		"1:disk-read*0",     // zero count
		"1:disk-read*x",     // non-numeric count
		"1:disk-read=0.5=1", // double rate
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestParseAcceptsFullSyntax(t *testing.T) {
	in, err := Parse("42: disk-read=0.25, worker-panic@w1*1, job-panic@scaling, disk-corrupt*2=0.5 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(in.rules))
	}
	r := in.rules[1]
	if r.point != SolverPanic || r.match != "w1" || r.max != 1 || r.rate != 1 {
		t.Fatalf("rule[1] = %+v", r)
	}
	r = in.rules[3]
	if r.point != DiskCorrupt || r.max != 2 || r.rate != 0.5 {
		t.Fatalf("rule[3] = %+v", r)
	}
}

// FuzzParse: Parse never panics, and a spec it accepts has at least one
// rule, and every rule names a known point with a rate in [0,1] and a
// non-negative count.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		if err != nil {
			return
		}
		if len(in.rules) == 0 {
			t.Fatalf("Parse(%q) accepted an empty plan", spec)
		}
		for i, r := range in.rules {
			if r.point >= numPoints {
				t.Fatalf("Parse(%q): rule %d has unknown point %d", spec, i, r.point)
			}
			if !(r.rate >= 0 && r.rate <= 1) {
				t.Fatalf("Parse(%q): rule %d has rate %v outside [0,1]", spec, i, r.rate)
			}
			if r.max < 0 {
				t.Fatalf("Parse(%q): rule %d has count %d", spec, i, r.max)
			}
		}
	})
}

func TestDisabledHelpersAreNoOps(t *testing.T) {
	prev := Set(nil)
	t.Cleanup(func() { Set(prev) })
	if Should(DiskRead, "k") || ShouldN(DiskWrite, "k", 3) {
		t.Fatal("disabled injector fired")
	}
	if err := Err(DiskRead, "k", 0); err != nil {
		t.Fatal(err)
	}
	data := []byte("payload")
	if got := Corrupt("k", data); !bytes.Equal(got, data) {
		t.Fatal("Corrupt mutated data while disabled")
	}
	MaybePanic(JobPanic, "k") // must not panic
	Stall(WorkerStall, "k")   // must not stall noticeably
}

func TestDecisionsAreDeterministicAndKeyed(t *testing.T) {
	install(t, "7:disk-read=0.5")
	first := make(map[string]bool)
	for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		first[key] = Should(DiskRead, key)
	}
	fired := 0
	for key, want := range first {
		if Should(DiskRead, key) != want {
			t.Fatalf("decision for %q changed between calls", key)
		}
		if want {
			fired++
		}
	}
	if fired == 0 || fired == len(first) {
		t.Fatalf("rate 0.5 fired %d/%d keys — not discriminating", fired, len(first))
	}
	// A different seed must give a different firing pattern eventually.
	install(t, "8:disk-read=0.5")
	same := true
	for key, want := range first {
		if Should(DiskRead, key) != want {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical decisions on all keys")
	}
}

func TestAttemptIsPartOfTheDecision(t *testing.T) {
	install(t, "3:disk-read=0.5")
	varies := false
	for n := uint64(1); n < 16; n++ {
		if ShouldN(DiskRead, "fixed-key", n) != ShouldN(DiskRead, "fixed-key", 0) {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("attempt number never changed the decision")
	}
}

func TestMatchAndCountBudget(t *testing.T) {
	install(t, "1:worker-panic@w1*2")
	if Should(SolverPanic, "w0") {
		t.Fatal("fired on non-matching key")
	}
	hits := 0
	for i := 0; i < 10; i++ {
		if Should(SolverPanic, "w1") {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("count budget *2 fired %d times", hits)
	}
}

func TestErrWrapsSentinel(t *testing.T) {
	install(t, "1:disk-write")
	err := Err(DiskWrite, "key", 4)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "disk-write@key#4") {
		t.Fatalf("err = %v, want point@key#attempt", err)
	}
}

func TestCorruptChangesBytesDeterministically(t *testing.T) {
	install(t, "1:disk-corrupt")
	data := []byte(`{"schema":"x","payload":"0123456789abcdef"}`)
	orig := append([]byte(nil), data...)
	got := Corrupt("k", data)
	if bytes.Equal(got, orig) {
		t.Fatal("Corrupt returned unchanged bytes while firing")
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("Corrupt mutated the caller's slice")
	}
	if again := Corrupt("k", orig); !bytes.Equal(again, got) {
		t.Fatal("Corrupt is not deterministic")
	}
}

func TestMaybePanicAndRecoverTo(t *testing.T) {
	install(t, "1:job-panic@boom")
	run := func(key string) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = NewPanicError("job", r)
			}
		}()
		MaybePanic(JobPanic, key)
		return nil
	}
	if err := run("quiet"); err != nil {
		t.Fatalf("non-matching key: %v", err)
	}
	err := run("boom")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Op != "job" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = op %q, %d stack bytes", pe.Op, len(pe.Stack))
	}
	if s := pe.Error(); strings.Contains(s, "goroutine") || !strings.Contains(s, "panic in job") {
		t.Fatalf("Error() = %q — must be stack-free and name the op", s)
	}
}
