package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"congestlb"
)

// referenceSolve is the decode scanSolve must agree with: the strict
// encoding/json decode followed by GraphSpec.graph.
func referenceSolve(body []byte, budget int64) (SolveRequest, *congestlb.Graph, error) {
	var req SolveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, err
	}
	g, err := req.Graph.graph(budget)
	req.Graph = GraphSpec{}
	return req, g, err
}

// sameGraph fails unless a and b have the same nodes, weights and edges.
func sameGraph(t *testing.T, a, b *congestlb.Graph) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("n: %d vs %d", a.N(), b.N())
	}
	for v := 0; v < a.N(); v++ {
		if a.Weight(v) != b.Weight(v) {
			t.Fatalf("weight of %d: %d vs %d", v, a.Weight(v), b.Weight(v))
		}
	}
	if ea, eb := a.Edges(), b.Edges(); !reflect.DeepEqual(ea, eb) {
		t.Fatalf("edges: %v vs %v", ea, eb)
	}
}

// sameOptions reports whether two decoded solve requests carry the same
// options.
func sameOptions(a, b SolveRequest) bool {
	return a.jobOptions == b.jobOptions && a.MaxSteps == b.MaxSteps
}

// marshalSolve is the bench client's body: json.Marshal(SolveRequest).
func marshalSolve(tb testing.TB, req SolveRequest) []byte {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// canonicalBodies are bodies the scanner must accept: the bench client's
// shape with and without weights and options, and the docs' examples.
// They are small because they seed FuzzDecodeSolve, whose minimization of
// new inputs is quadratic in their length.
func canonicalBodies(tb testing.TB) [][]byte {
	opts := SolveRequest{jobOptions: jobOptions{DeadlineMS: 5000, Async: true}, MaxSteps: 1 << 40}
	opts.Graph = randSpec(12, 0.3, 8, 3)
	unweighted := randSpec(9, 0.4, 1, 5)
	unweighted.Weights = nil
	return [][]byte{
		marshalSolve(tb, SolveRequest{Graph: randSpec(16, 0.2, 8, 1)}),
		marshalSolve(tb, SolveRequest{Graph: unweighted}),
		marshalSolve(tb, opts),
		marshalSolve(tb, SolveRequest{Graph: GraphSpec{N: 1, Edges: [][2]int{}}}),
		[]byte(`{"graph":{"n":3,"edges":[[0,1],[1,2]]}}`),
		[]byte("{\n  \"graph\": {\"n\": 5, \"weights\": [2,1,1,1,2], \"edges\": [[0,1],[1,2],[2,3],[3,4]]},\n  \"deadline_ms\": 5000\n}"),
		[]byte(` { "max_steps" : -1 , "graph" : { "n" : 2 , "edges" : [ [ 1 , 0 ] , [0,1] ] } , "async" : false } ` + "\t\r\n"),
	}
}

// overridingGraph is invalid in its first graph, which a repeated key
// overrides: the reference decode accepts it.
const overridingGraph = `{"graph":{"n":3,"edges":[[0,9]]},"graph":{"n":3,"edges":[]}}`

// fallbackBodies are bodies the scanner must decline, each decided by the
// reference decode alone.
var fallbackBodies = []string{
	`{"graph":{"N":3,"edges":[]}}`,
	`{"graph":{"n":3,"Edges":[]}}`,
	`{"gr\u0061ph":{"n":3,"edges":[]}}`,
	overridingGraph,
	`{"graph":null}`,
	`{"graph":{"n":3,"edges":null}}`,
	`{"graph":{"n":3,"weights":null,"edges":[]}}`,
	`{"graph":{"n":3,"edges":[[1]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,2]]}}`,
	`{"graph":{"n":1e2,"edges":[]}}`,
	`{"graph":{"n":3.0,"edges":[]}}`,
	`{"graph":{"n":3,"edges":[[0,1.0]]}}`,
	`{"graph":{"n":03,"edges":[]}}`,
	`{"graph":{"n":3,"edges":[[-0,1]]}}`,
	`{"graph":{"n":3,"edges":[]},"deadline_ms":-0}`,
	`{"graph":{"n":3,"edges":[]},"max_steps":9223372036854775808}`,
	`{"graph":{"n":3,"edges":[]},"deadline_ms":-9223372036854775809}`,
	`{"graph":{"n":3,"edges":[]}} trailing`,
	`{"graph":{"n":3,"edges":[]}}{}`,
	`{"graph":{"edges":[],"n":3}}`,
	`{"graph":{"n":3,"edges":[],"weights":[1,1,1]}}`,
	`{"graph":{"n":3,"weights":[1,1],"edges":[]}}`,
	`{"graph":{"n":3,"weights":[1,1,1,1],"edges":[]}}`,
	`{"graph":{"n":3,"weights":[1,-1,1],"edges":[]}}`,
	`{"graph":{"n":3,"edges":[[1,1]]}}`,
	`{"graph":{"n":0,"edges":[]}}`,
	`{"graph":{"n":-3,"edges":[]}}`,
	`{"graph":{"n":1048576,"edges":[]}}`,
	`{"graph":{"n":3,"edges":[]},"async":1}`,
	`{"graph":{"n":3,"edges":[]},"async":null}`,
	`{"graph":{"n":3,"edges":[]},"dedaline_ms":5}`,
	`{"graph":{"n":3,"edges":[]},"weight_only":true}`,
	`{"async":true}`,
	`{}`,
	`[]`,
	``,
}

// TestScanSolveCanonical: every canonical body, and the bench's
// full-size solve-mix and solve-hard shapes, is accepted and decodes to
// exactly what the reference decode gives.
func TestScanSolveCanonical(t *testing.T) {
	bodies := append(canonicalBodies(t),
		marshalSolve(t, SolveRequest{Graph: randSpec(56, 0.2, 8, 1)}),
		marshalSolve(t, SolveRequest{Graph: randSpec(95, 0.28, 8, 2)}))
	for _, body := range bodies {
		req, g, ok := scanSolve(body, memBudget)
		if !ok {
			t.Fatalf("scanner declined canonical body %s", body)
		}
		ref, rg, err := referenceSolve(body, memBudget)
		if err != nil {
			t.Fatalf("reference rejects %s: %v", body, err)
		}
		if !sameOptions(req, ref) {
			t.Fatalf("options %+v, reference %+v, body %s", req, ref, body)
		}
		sameGraph(t, g, rg)
	}
}

// TestScanSolveFallback: every non-canonical or invalid body is declined,
// leaving its verdict to the reference decode.
func TestScanSolveFallback(t *testing.T) {
	for _, body := range fallbackBodies {
		if _, _, ok := scanSolve([]byte(body), memBudget); ok {
			t.Errorf("scanner accepted %s", body)
		}
	}
	// The overriding repeated key is why invalid bodies fall back rather
	// than fail: the reference accepts this one.
	if _, _, err := referenceSolve([]byte(overridingGraph), memBudget); err != nil {
		t.Fatalf("reference rejects the overriding repeated graph: %v", err)
	}
}

// FuzzDecodeSolve checks the scanner against the reference decode:
// whatever the scanner accepts, the reference accepts with the same
// options and the same graph, and no accepted graph is over the budget.
func FuzzDecodeSolve(f *testing.F) {
	for _, body := range canonicalBodies(f) {
		f.Add(body)
	}
	for _, body := range fallbackBodies {
		f.Add([]byte(body))
	}
	// A 4 MiB budget admits graphs of up to ~3.3k nodes (a ~1.4 MB row
	// arena), so the fuzzer cannot spend its time allocating the ~27k-node
	// graphs memBudget admits.
	const budget = 4 << 20
	f.Fuzz(func(t *testing.T, body []byte) {
		req, g, ok := scanSolve(body, budget)
		if !ok {
			return
		}
		if b := solveBytes(int64(g.N())); b > budget {
			t.Fatalf("scanner built n=%d, which needs %d bytes", g.N(), b)
		}
		ref, rg, err := referenceSolve(body, budget)
		if err != nil {
			t.Fatalf("scanner accepted, reference rejects: %v", err)
		}
		if !sameOptions(req, ref) {
			t.Fatalf("options %+v, reference %+v", req, ref)
		}
		sameGraph(t, g, rg)
	})
}

// TestConcurrentSolves posts distinct solves from several goroutines at
// once: the pooled body buffers are shared between requests, so any
// cross-talk shows as a wrong optimum or a failed request.
func TestConcurrentSolves(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	const clients, rounds = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Paths of distinct lengths: the optimum ⌈n/2⌉ identifies
				// the body that was decoded.
				n := 3 + c*rounds + r
				spec := pathSpec(n)
				if r%2 == 1 {
					spec = GraphSpec{N: n, Weights: make([]int64, n), Edges: spec.Edges}
					for v := range spec.Weights {
						spec.Weights[v] = 1
					}
				}
				body, _ := json.Marshal(SolveRequest{Graph: spec})
				if r%3 == 2 {
					body = append(body, ' ', 'x') // trailing bytes: the fallback path
				}
				req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(body))
				req.Header.Set("X-API-Key", []string{"ka", "kb"}[c%2])
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					continue
				}
				var v JobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				var res SolveResult
				if err == nil {
					err = json.Unmarshal(v.Result, &res)
				}
				if err != nil || resp.StatusCode != 200 || res.Weight != int64((n+1)/2) {
					errs <- fmt.Errorf("client %d round %d (n=%d): %d, weight %d, %v", c, r, n, resp.StatusCode, res.Weight, err)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkDecodeSolve times the scanner against the reference decode on
// bodies shaped like the bench's solve-mix (n=56, p=0.2) and solve-hard
// (n=95, p=0.28) requests: json.Marshal(SolveRequest), weights 1..8.
func BenchmarkDecodeSolve(b *testing.B) {
	shapes := []struct {
		name string
		n    int
		p    float64
	}{{"mix", 56, 0.2}, {"hard", 95, 0.28}}
	for k, sh := range shapes {
		body := marshalSolve(b, SolveRequest{Graph: randSpec(sh.n, sh.p, 8, int64(k+1))})
		b.Run(sh.name+"/scanner", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := scanSolve(body, memBudget); !ok {
					b.Fatal("scanner declined")
				}
			}
		})
		b.Run(sh.name+"/reference", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := referenceSolve(body, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
