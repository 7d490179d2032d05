package mis

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"congestlb/internal/fault"
)

// armFaults installs a fault-injection plan for one test and restores the
// previous injector afterwards. Tests using it must not run in parallel:
// the injector is process-global.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	inj, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	prev := fault.Set(inj)
	t.Cleanup(func() { fault.Set(prev) })
}

// TestSolverWorkerPanicRecovered: the chaos plan's worker-panic@w*1
// matches the solver's one search, "w0", exactly once. The first solve
// recovers the panic and degrades to its incumbent; the next solve runs
// clean and returns the same Solution as a solve with no plan armed.
func TestSolverWorkerPanicRecovered(t *testing.T) {
	g := randomGraph(64, 0.3, 9, rand.New(rand.NewSource(71)))
	want, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}

	armFaults(t, "7:worker-panic@w*1")
	degraded, err := Exact(g, Options{})
	var pe *fault.PanicError
	if !errors.As(err, &pe) || !strings.Contains(pe.Op, "w0") {
		t.Fatalf("first solve: err = %v, want a *fault.PanicError of solver worker w0", err)
	}
	if degraded.Optimal {
		t.Fatal("degraded solve flagged optimal")
	}
	if w, verr := Verify(g, degraded.Set); verr != nil || w != degraded.Weight {
		t.Fatalf("degraded incumbent invalid: w=%d err=%v", w, verr)
	}
	clean, err := Exact(g, Options{})
	if err != nil {
		t.Fatalf("second solve failed after the *1 budget was spent: %v", err)
	}
	if !reflect.DeepEqual(clean, want) {
		t.Fatalf("second solve %+v, want the unarmed solve %+v", clean, want)
	}
}

// TestSolverPanicSequentialDegrades: the search recovers the panic itself
// (it is "w0" at the fault layer) and degrades to the greedy-seeded
// incumbent — a valid witness alongside a *fault.PanicError, the same
// contract as a blown budget.
func TestSolverPanicSequentialDegrades(t *testing.T) {
	armFaults(t, "7:worker-panic@w0*1")
	g := randomGraph(30, 0.3, 9, rand.New(rand.NewSource(5)))
	sol, err := Exact(g, Options{})
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *fault.PanicError", err)
	}
	if !strings.Contains(pe.Op, "w0") {
		t.Fatalf("panic attributed to %q, want solver worker w0", pe.Op)
	}
	if sol.Optimal {
		t.Fatal("degraded solve flagged optimal")
	}
	if w, verr := Verify(g, sol.Set); verr != nil || w != sol.Weight {
		t.Fatalf("incumbent witness invalid: w=%d err=%v", w, verr)
	}
}

// TestAllSolverWorkersPanicDegrades: an uncapped worker-panic@w plan fires
// on every solve. Each one terminates with the greedy-seeded incumbent —
// valid, non-optimal — and a *fault.PanicError; none is ever optimal.
func TestAllSolverWorkersPanicDegrades(t *testing.T) {
	armFaults(t, "7:worker-panic@w")
	g := randomGraph(64, 0.3, 9, rand.New(rand.NewSource(71)))
	seed := SeedIncumbent(g)
	for solve := 0; solve < 3; solve++ {
		sol, err := Exact(g, Options{})
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("solve %d: err = %v, want a *fault.PanicError", solve, err)
		}
		if sol.Optimal {
			t.Fatalf("solve %d: degraded solve flagged optimal", solve)
		}
		if sol.Weight != seed.Weight || !reflect.DeepEqual(sol.Set, seed.Set) {
			t.Fatalf("solve %d: incumbent %v (w=%d), want the greedy seed %v (w=%d)",
				solve, sol.Set, sol.Weight, seed.Set, seed.Weight)
		}
	}
}

// TestSolverPanicDisabledInjectorClean: with no injector installed the
// fault sites are no-ops and solves are exactly as before — the guard
// that chaos plumbing costs nothing when off.
func TestSolverPanicDisabledInjectorClean(t *testing.T) {
	prev := fault.Set(nil)
	t.Cleanup(func() { fault.Set(prev) })
	g := randomGraph(56, 0.3, 9, rand.New(rand.NewSource(13)))
	sol, err := Exact(g, Options{})
	if err != nil || !sol.Optimal {
		t.Fatalf("solve with injection disabled: optimal=%v err=%v", sol.Optimal, err)
	}
	if w, verr := Verify(g, sol.Set); verr != nil || w != sol.Weight {
		t.Fatalf("witness invalid: w=%d err=%v", w, verr)
	}
}
