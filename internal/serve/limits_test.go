package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"congestlb"
)

// TestSolveBytes pins the cost model, (3n+1)·⌈n/64⌉·8 bytes, and checks it
// at the edge of the production budget and of a small one without
// allocating either; the bench's graphs cost a few KB.
func TestSolveBytes(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, 95, 1000} {
		if got, want := solveBytes(n), (3*n+1)*((n+63)/64)*8; got != want {
			t.Fatalf("solveBytes(%d) = %d, want %d", n, got, want)
		}
	}
	for _, budget := range []int64{memBudget, 4 << 20} {
		// The largest n within the budget, by bisection.
		lo, hi := int64(1), int64(1<<20)
		for lo+1 < hi {
			if mid := (lo + hi) / 2; solveBytes(mid) <= budget {
				lo = mid
			} else {
				hi = mid
			}
		}
		if err := checkSolveBytes(lo, budget); err != nil {
			t.Fatalf("budget %d: n=%d just under the budget rejected: %v", budget, lo, err)
		}
		err := checkSolveBytes(lo+1, budget)
		if !errors.Is(err, errTooLarge) || !strings.Contains(err.Error(), fmt.Sprint(solveBytes(lo+1))) {
			t.Fatalf("budget %d: n=%d just over the budget: %v", budget, lo+1, err)
		}
		over := fmt.Sprintf(`{"graph":{"n":%d,"edges":[]}}`, lo+1)
		if _, _, ok := scanSolve([]byte(over), budget); ok {
			t.Fatalf("budget %d: scanner built a graph over the budget", budget)
		}
		if _, err := (GraphSpec{N: int(lo + 1)}).graph(budget); !errors.Is(err, errTooLarge) {
			t.Fatalf("budget %d: GraphSpec.graph over the budget: %v", budget, err)
		}
	}
	if b := solveBytes(95); b > 8<<10 {
		t.Fatalf("a solve-hard graph (n=95) costs %d bytes, want a few KB", b)
	}
	if b := solveBytes(1 << 62); b != 1<<63-1 {
		t.Fatalf("huge n: %d, want the saturated figure", b)
	}
}

// TestReduceBytes: the 77-byte crash body's parameters are over the
// budget, the bench's and the docs' are far under it.
func TestReduceBytes(t *testing.T) {
	cases := []struct {
		family string
		p      congestlb.Params
		over   bool
	}{
		{"linear", congestlb.Params{T: 2, Alpha: 1, Ell: 65535}, true},
		{"linear", congestlb.Params{T: 1 << 62, Alpha: 1, Ell: 3}, true},
		{"unweighted", congestlb.Params{T: 2, Alpha: 1, Ell: 200}, true},
		// n=5400: the solve and the codeword table fit, the n rebuilt
		// graphs of GossipExact (~20 GB) do not.
		{"linear", congestlb.Params{T: 2, Alpha: 1, Ell: 49}, true},
		{"linear", congestlb.Params{T: 3, Alpha: 1, Ell: 4}, false},
		{"quadratic", congestlb.Params{T: 2, Alpha: 1, Ell: 3}, false},
		{"unweighted", congestlb.Params{T: 2, Alpha: 1, Ell: 3}, false},
	}
	for _, c := range cases {
		_, err := familyFrom(c.family, ParamsSpec{T: c.p.T, Alpha: c.p.Alpha, Ell: c.p.Ell}, memBudget)
		if got := errors.Is(err, errTooLarge); got != c.over {
			t.Errorf("%s %v: over budget %v, want %v (%v)", c.family, c.p, got, c.over, err)
		}
	}
	// The weighted families' node count is exactly the constructions'.
	for _, p := range []congestlb.Params{{T: 3, Alpha: 1, Ell: 4}, {T: 2, Alpha: 2, Ell: 5}} {
		if n := reduceNodes("linear", p); n != int64(p.LinearN()) {
			t.Errorf("linear %v: %d nodes, want %d", p, n, p.LinearN())
		}
		if n := reduceNodes("quadratic", p); n != int64(p.QuadraticN()) {
			t.Errorf("quadratic %v: %d nodes, want %d", p, n, p.QuadraticN())
		}
	}
}

// allocDuring reports the bytes allocated while one request is served
// in-process.
func allocDuring(h http.Handler, req *http.Request) (*httptest.ResponseRecorder, uint64) {
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	return rec, after.TotalAlloc - before.TotalAlloc
}

// TestTinyBodiesOverBudget: the 34-byte solve body and the 77-byte reduce
// body that each used to exhaust memory get a 413 naming the computed
// figure, allocating under 1 MiB each.
func TestTinyBodiesOverBudget(t *testing.T) {
	s, err := New(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct{ path, body, figure string }{
		{"/v1/solve", `{"graph":{"n":1048576,"edges":[]}}`, fmt.Sprint(solveBytes(1 << 20))},
		{"/v1/reduce", `{"family":"linear","params":{"t":2,"alpha":1,"ell":65535},"inputs":["0","0"]}`, "n=8590196736"},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", c.path, strings.NewReader(c.body))
		req.Header.Set("X-API-Key", "ka")
		rec, alloc := allocDuring(s.Handler(), req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), c.figure) {
			t.Fatalf("%s %d-byte body: %d %s, want 413 naming %s", c.path, len(c.body), rec.Code, rec.Body, c.figure)
		}
		if alloc >= 1<<20 {
			t.Fatalf("%s %d-byte body allocated %d bytes, want under 1 MiB", c.path, len(c.body), alloc)
		}
	}
}
