package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"congestlb"
	"congestlb/internal/runner"
)

// twoTenants is the canonical test topology: alice and bob, separate
// keys, default quotas.
func twoTenants() Config {
	return Config{Tenants: []TenantConfig{
		{Name: "alice", APIKey: "ka"},
		{Name: "bob", APIKey: "kb"},
	}}
}

// testServer builds a Server over an httptest listener. Close runs at
// cleanup; tests that close explicitly just see ErrClosed there.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

// call issues one JSON request and returns the response with its body
// read and closed.
func call(t *testing.T, method, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// jobView decodes a JobView response body.
func jobView(t *testing.T, data []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("job view: %v in %s", err, data)
	}
	return v
}

// solveResult unwraps a done solve job's result payload.
func solveResult(t *testing.T, v JobView) SolveResult {
	t.Helper()
	if v.Status != JobDone {
		t.Fatalf("job %s status %s (%s), want done", v.ID, v.Status, v.Error)
	}
	var res SolveResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// pathSpec is a path graph on n unit-weight nodes — tiny, deterministic,
// solves in microseconds.
func pathSpec(n int) GraphSpec {
	s := GraphSpec{N: n}
	for i := 0; i+1 < n; i++ {
		s.Edges = append(s.Edges, [2]int{i, i + 1})
	}
	return s
}

// randSpec is a seeded G(n,p) graph with weights in 1..maxW; big enough
// n makes the exact solve slow, which is what the deadline and
// saturation tests need.
func randSpec(n int, p float64, maxW int64, seed int64) GraphSpec {
	rng := rand.New(rand.NewSource(seed))
	s := GraphSpec{N: n}
	for v := 0; v < n; v++ {
		s.Weights = append(s.Weights, 1+rng.Int63n(maxW))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				s.Edges = append(s.Edges, [2]int{u, v})
			}
		}
	}
	return s
}

func solveBody(t *testing.T, spec GraphSpec, extra string) string {
	t.Helper()
	g, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if extra != "" {
		extra = "," + extra
	}
	return fmt.Sprintf(`{"graph":%s%s}`, g, extra)
}

// TestCrossTenantSharedTier is the acceptance scenario: two tenants
// solve the identical graph and the run costs exactly one cache miss
// total, with per-tenant attribution intact.
func TestCrossTenantSharedTier(t *testing.T) {
	s, ts := testServer(t, twoTenants())
	spec := randSpec(40, 0.2, 5, 7)
	body := solveBody(t, spec, "")

	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", body)
	if resp.StatusCode != 200 {
		t.Fatalf("alice solve: %d %s", resp.StatusCode, data)
	}
	cold := solveResult(t, jobView(t, data))
	if cold.Cache.Misses != 1 || cold.Cache.Hits != 0 || cold.Cache.SharedHits != 0 {
		t.Fatalf("cold attribution wrong: %+v", cold.Cache)
	}
	if !cold.Optimal || cold.Weight <= 0 {
		t.Fatalf("cold solve wrong: %+v", cold)
	}

	resp, data = call(t, "POST", ts.URL+"/v1/solve", "kb", body)
	if resp.StatusCode != 200 {
		t.Fatalf("bob solve: %d %s", resp.StatusCode, data)
	}
	warm := solveResult(t, jobView(t, data))
	if warm.Cache.Misses != 0 || warm.Cache.Hits != 1 || warm.Cache.SharedHits != 1 {
		t.Fatalf("warm attribution wrong (want the shared-tier hit): %+v", warm.Cache)
	}
	if warm.Cache.StepsSolved != 0 {
		t.Fatalf("warm solve ran %d steps, want 0 (tier-served)", warm.Cache.StepsSolved)
	}
	if warm.Weight != cold.Weight {
		t.Fatalf("tenants disagree on the optimum: %d vs %d", warm.Weight, cold.Weight)
	}

	// Exactly one miss total across the daemon, and the tier holds the
	// one solution.
	if st := s.tier.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("tier stats %+v, want 1 entry / 1 hit", st)
	}
	if st := s.byName["alice"].Lab.SolveCacheStats(); st.Misses != 1 || st.SharedHits != 0 {
		t.Fatalf("alice lab stats %+v", st)
	}
	if st := s.byName["bob"].Lab.SolveCacheStats(); st.Misses != 0 || st.SharedHits != 1 {
		t.Fatalf("bob lab stats %+v", st)
	}
}

// TestSolveResultOmitsCacheSnapshots: a /v1/solve result's cache block is
// the request's session, which books neither evictions nor entries, so
// neither key appears — on a miss or on a shared-tier hit.
func TestSolveResultOmitsCacheSnapshots(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	body := solveBody(t, randSpec(30, 0.2, 5, 3), "")
	for _, key := range []string{"ka", "kb"} {
		resp, data := call(t, "POST", ts.URL+"/v1/solve", key, body)
		if resp.StatusCode != 200 {
			t.Fatalf("solve: %d %s", resp.StatusCode, data)
		}
		var res struct {
			Cache map[string]json.RawMessage `json:"cache"`
		}
		if err := json.Unmarshal(jobView(t, data).Result, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Cache) == 0 {
			t.Fatalf("no cache block in %s", data)
		}
		for _, snapshot := range []string{"evictions", "entries"} {
			if _, ok := res.Cache[snapshot]; ok {
				t.Fatalf("tenant %s: cache block carries %q: %s", key, snapshot, data)
			}
		}
	}
}

// TestDeadlineCutSolve: a deadline-cut solve is a done job carrying the
// incumbent with cancelled set, never a failure.
func TestDeadlineCutSolve(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	body := solveBody(t, randSpec(240, 0.1, 9, 11), `"deadline_ms":150`)
	start := time.Now()
	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", body)
	if resp.StatusCode != 200 {
		t.Fatalf("solve: %d %s", resp.StatusCode, data)
	}
	v := jobView(t, data)
	if !v.Cancelled {
		t.Fatalf("job not flagged cancelled: %+v (solved in %v — grow the graph)", v, time.Since(start))
	}
	res := solveResult(t, v)
	if !res.Cancelled || res.Optimal {
		t.Fatalf("deadline-cut result wrong: %+v", res)
	}
	if res.Weight <= 0 || len(res.Set) == 0 {
		t.Fatalf("no incumbent returned: %+v", res)
	}
}

// TestTenantSaturation: a tenant at its concurrency bound gets 429 with
// Retry-After while the other tenant's requests still complete.
func TestTenantSaturation(t *testing.T) {
	cfg := twoTenants()
	cfg.Tenants[0].Quota.MaxConcurrentJobs = 1
	_, ts := testServer(t, cfg)

	slow := solveBody(t, randSpec(240, 0.1, 9, 13), `"async":true,"deadline_ms":30000`)
	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", slow)
	if resp.StatusCode != 202 {
		t.Fatalf("async admit: %d %s", resp.StatusCode, data)
	}
	id := jobView(t, data).ID

	resp, data = call(t, "POST", ts.URL+"/v1/solve", "ka", solveBody(t, pathSpec(5), ""))
	if resp.StatusCode != 429 {
		t.Fatalf("saturated tenant got %d %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The other tenant is unaffected by alice's saturation.
	resp, data = call(t, "POST", ts.URL+"/v1/solve", "kb", solveBody(t, pathSpec(5), ""))
	if resp.StatusCode != 200 {
		t.Fatalf("bob got %d %s during alice's saturation", resp.StatusCode, data)
	}
	if res := solveResult(t, jobView(t, data)); res.Weight != 3 {
		t.Fatalf("path(5) optimum %d, want 3", res.Weight)
	}

	// Cancel the hog and wait for the slot to free.
	resp, _ = call(t, "DELETE", ts.URL+"/v1/jobs/"+id, "ka", "")
	if resp.StatusCode != 200 {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data = call(t, "GET", ts.URL+"/v1/jobs/"+id, "ka", "")
		v := jobView(t, data)
		if v.Status == JobDone || v.Status == JobFailed {
			if !v.Cancelled {
				t.Fatalf("cancelled job not flagged: %+v", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished after cancel: %+v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// With the slot free, alice is admitted again.
	resp, data = call(t, "POST", ts.URL+"/v1/solve", "ka", solveBody(t, pathSpec(5), ""))
	if resp.StatusCode != 200 {
		t.Fatalf("alice still rejected after cancel: %d %s", resp.StatusCode, data)
	}
}

// TestGlobalSaturation: the daemon-wide in-flight bound rejects across
// tenants once reached.
func TestGlobalSaturation(t *testing.T) {
	cfg := twoTenants()
	cfg.MaxInflight = 1
	_, ts := testServer(t, cfg)

	slow := solveBody(t, randSpec(240, 0.1, 9, 17), `"async":true,"deadline_ms":30000`)
	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", slow)
	if resp.StatusCode != 202 {
		t.Fatalf("admit: %d %s", resp.StatusCode, data)
	}
	id := jobView(t, data).ID
	resp, data = call(t, "POST", ts.URL+"/v1/solve", "kb", solveBody(t, pathSpec(5), ""))
	if resp.StatusCode != 429 || !strings.Contains(string(data), "max_inflight") {
		t.Fatalf("global bound: %d %s, want 429 max_inflight", resp.StatusCode, data)
	}
	call(t, "DELETE", ts.URL+"/v1/jobs/"+id, "ka", "")
}

// sseRecord is one parsed SSE frame.
type sseRecord struct {
	event string
	data  string
}

// parseSSE splits an event-stream body into frames.
func parseSSE(t *testing.T, r io.Reader) []sseRecord {
	t.Helper()
	var recs []sseRecord
	var cur sseRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" || cur.data != "" {
				recs = append(recs, cur)
				cur = sseRecord{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSSEStream: the job stream replays strictly increasing incumbent
// weights and terminates with exactly one done event carrying the final
// job view.
func TestSSEStream(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	body := solveBody(t, randSpec(60, 0.2, 7, 19), `"async":true`)
	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", body)
	if resp.StatusCode != 202 {
		t.Fatalf("admit: %d %s", resp.StatusCode, data)
	}
	id := jobView(t, data).ID

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/stream", nil)
	req.Header.Set("X-API-Key", "ka")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	recs := parseSSE(t, sresp.Body)

	var weights []int64
	done := 0
	for i, rec := range recs {
		switch rec.event {
		case "incumbent":
			var ev sseEvent
			if err := json.Unmarshal([]byte(rec.data), &ev); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !ev.Final {
				weights = append(weights, ev.Weight)
			}
		case "done":
			done++
			if i != len(recs)-1 {
				t.Fatalf("done frame %d is not last of %d", i, len(recs))
			}
			v := jobView(t, []byte(rec.data))
			if v.Status != JobDone {
				t.Fatalf("done frame carries status %s", v.Status)
			}
		default:
			t.Fatalf("unknown event %q", rec.event)
		}
	}
	if done != 1 {
		t.Fatalf("%d done events, want exactly 1", done)
	}
	if len(weights) == 0 {
		t.Fatal("no incumbent events streamed")
	}
	for i := 1; i < len(weights); i++ {
		if weights[i] <= weights[i-1] {
			t.Fatalf("incumbent weights not strictly increasing: %v", weights)
		}
	}
}

// TestJobVisibility: jobs are tenant-scoped — another tenant's id is the
// same 404 an unknown id gets.
func TestJobVisibility(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", solveBody(t, pathSpec(4), ""))
	if resp.StatusCode != 200 {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	id := jobView(t, data).ID
	if resp, _ = call(t, "GET", ts.URL+"/v1/jobs/"+id, "kb", ""); resp.StatusCode != 404 {
		t.Fatalf("cross-tenant job read: %d, want 404", resp.StatusCode)
	}
	if resp, _ = call(t, "GET", ts.URL+"/v1/jobs/"+id, "ka", ""); resp.StatusCode != 200 {
		t.Fatalf("own job read: %d, want 200", resp.StatusCode)
	}
	if resp, _ = call(t, "GET", ts.URL+"/v1/jobs/nope", "ka", ""); resp.StatusCode != 404 {
		t.Fatalf("unknown job read: %d, want 404", resp.StatusCode)
	}
}

// TestCancelFinishedJob: cancelling a job that already finished leaves
// its result as it was, not flagged cancelled.
func TestCancelFinishedJob(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", solveBody(t, pathSpec(4), ""))
	if resp.StatusCode != 200 {
		t.Fatalf("solve: %d %s", resp.StatusCode, data)
	}
	v := jobView(t, data)
	if res := solveResult(t, v); !res.Optimal || v.Cancelled {
		t.Fatalf("path(4) solve: %+v, want optimal and not cancelled", v)
	}
	_, data = call(t, "DELETE", ts.URL+"/v1/jobs/"+v.ID, "ka", "")
	if got := jobView(t, data); got.Cancelled || got.Status != JobDone {
		t.Fatalf("DELETE of a finished job answered %s cancelled=%v, want done and not cancelled", got.Status, got.Cancelled)
	}
	_, data = call(t, "GET", ts.URL+"/v1/jobs/"+v.ID, "ka", "")
	if got := jobView(t, data); got.Cancelled || !solveResult(t, got).Optimal {
		t.Fatalf("finished job after DELETE reads %s cancelled=%v %s, want it unchanged", got.Status, got.Cancelled, got.Result)
	}
}

// TestAuth: missing and unknown keys are 401 on every API route; the
// ops surface stays open.
func TestAuth(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	for _, key := range []string{"", "wrong"} {
		resp, _ := call(t, "POST", ts.URL+"/v1/solve", key, solveBody(t, pathSpec(3), ""))
		if resp.StatusCode != 401 {
			t.Fatalf("key %q: %d, want 401", key, resp.StatusCode)
		}
	}
	// Bearer form works too.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/status", nil)
	req.Header.Set("Authorization", "Bearer ka")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("bearer auth: %d", resp.StatusCode)
	}
	if resp, _ := call(t, "GET", ts.URL+"/healthz", "", ""); resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp, _ := call(t, "GET", ts.URL+"/metrics", "", ""); resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
}

// TestBadRequests: malformed bodies are 400, and requests over the
// memory budget or the body limit 413, after admission and before
// anything of the request's size is allocated or any job runs.
func TestBadRequests(t *testing.T) {
	s, ts := testServer(t, twoTenants())
	const linear = `"family":"linear","params":{"t":2,"alpha":1,"ell":3}`
	cases := []struct {
		path, body string
		code       int
	}{
		{"/v1/solve", `{`, 400},
		{"/v1/solve", `{"graph":{"n":0,"edges":[]}}`, 400},
		{"/v1/solve", `{"graph":{"n":3,"edges":[[0,9]]}}`, 400},
		{"/v1/solve", `{"graph":{"n":3,"weights":[1],"edges":[]}}`, 400},
		{"/v1/solve", `{"graph":{"n":3,"edges":[]},"max_steps":-1}`, 400},
		{"/v1/solve", `{"graph":{"n":3,"edges":[]},"dedaline_ms":5}`, 400},    // typo: unknown field
		{"/v1/solve", `{"graph":{"n":3,"edges":[]},"weight_only":true}`, 400}, // retired field
		{"/v1/solve", `{"graph":{"n":3,"edges":[[0,1]]},"max_steps":1.5}`, 400},
		{"/v1/solve", `{"graph":{"n":1048576,"edges":[]}}`, 413},
		{"/v1/solve", `{"graph":{"N":1048576,"Edges":[]}}`, 413},
		{"/v1/reduce", `{"family":"cubic","params":{"t":2,"alpha":1,"ell":3},"inputs":["0"]}`, 400},
		{"/v1/reduce", `{` + linear + `,"inputs":["01x"]}`, 400},
		{"/v1/reduce", `{` + linear + `,"inputs":[]}`, 400},
		{"/v1/reduce", `{` + linear + `,"inputs":["0110"]}`, 400},
		{"/v1/reduce", `{` + linear + `,"inputs":["0","0"]}`, 400},
		{"/v1/reduce", `{` + linear + `,"inputs":["0110","01x0"]}`, 400},
		{"/v1/reduce", `{"family":"linear","params":{"t":1,"alpha":1,"ell":3},"inputs":["0110"]}`, 400},
		{"/v1/reduce", `{` + linear + `,"inputs":["0110","0001"],"config":{"bandwidth_bits":-1}}`, 400},
		{"/v1/reduce", `{` + linear + `,"inputs":["0110","0001"],"config":{"max_rounds":-1}}`, 400},
		{"/v1/reduce", `{"family":"linear","params":{"t":2,"alpha":1,"ell":65535},"inputs":["0","0"]}`, 413},
		{"/v1/reduce", `{"family":"quadratic","params":{"t":2,"alpha":2,"ell":200},"inputs":["0","0"]}`, 413},
	}
	for _, c := range cases {
		resp, data := call(t, "POST", ts.URL+c.path, "ka", c.body)
		if resp.StatusCode != c.code {
			t.Errorf("%s %s: %d %s, want %d", c.path, c.body, resp.StatusCode, data, c.code)
		}
	}
	// The retired weight_only key falls through to the strict decoder,
	// which names it.
	if _, data := call(t, "POST", ts.URL+"/v1/solve", "ka", `{"graph":{"n":3,"edges":[]},"weight_only":true}`); !strings.Contains(string(data), `unknown field \"weight_only\"`) {
		t.Errorf("weight_only body: %s, want the unknown-field error", data)
	}
	// A body past maxBody is a 413 on every POST endpoint. It is served
	// in-process: over a socket the client may still be writing when the
	// server closes the connection.
	for _, path := range []string{"/v1/solve", "/v1/reduce", "/v1/experiments"} {
		body := io.MultiReader(io.LimitReader(spaces{}, maxBody), strings.NewReader(`{}`))
		req := httptest.NewRequest("POST", path, body)
		req.Header.Set("X-API-Key", "ka")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: %d %s, want 413", path, maxBody+2, rec.Code, rec.Body)
		}
	}
}

// TestSolveSelfLoopError: a self-loop in a /v1/solve graph is a 400 that
// names the edge and its node, and nothing else.
func TestSolveSelfLoopError(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", `{"graph":{"n":3,"edges":[[1,1]]}}`)
	var body errorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("%v in %s", err, data)
	}
	const want = "graph: edge 0 [1,1]: graphs: self-loop at node 1"
	if resp.StatusCode != http.StatusBadRequest || body.Error != want {
		t.Fatalf("self-loop: %d %q, want 400 %q", resp.StatusCode, body.Error, want)
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// inputStrings renders input vectors in the wire's '0'/'1' form.
func inputStrings(in congestlb.Inputs) []string {
	out := make([]string, len(in))
	for i, v := range in {
		var b strings.Builder
		for j := 0; j < v.Len(); j++ {
			if v.Get(j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		out[i] = b.String()
	}
	return out
}

// TestReduce: a full Theorem 5 reduction over the wire, with the gap
// audit cross-checking the reported optimum.
func TestReduce(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	p := congestlb.Params{T: 2, Alpha: 1, Ell: 3}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	in, _, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := ReduceRequest{
		Family:    "linear",
		Params:    ParamsSpec{T: 2, Alpha: 1, Ell: 3},
		Inputs:    inputStrings(in),
		Config:    CongestSpec{Seed: 1},
		VerifyGap: true,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := call(t, "POST", ts.URL+"/v1/reduce", "ka", string(body))
	if resp.StatusCode != 200 {
		t.Fatalf("reduce: %d %s", resp.StatusCode, data)
	}
	v := jobView(t, data)
	if v.Status != JobDone {
		t.Fatalf("reduce job %s: %s", v.Status, v.Error)
	}
	var res ReduceResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Family, "linear") || res.Players != 2 {
		t.Fatalf("report header wrong: %+v", res)
	}
	if !res.AccountingHolds {
		t.Fatalf("accounting violated: %+v", res)
	}
	if !res.Correct {
		t.Fatalf("decision %v != truth %v", res.Decision, res.Truth)
	}
	if res.GapOpt == nil || *res.GapOpt != res.Opt {
		t.Fatalf("gap audit disagrees: %+v vs opt %d", res.GapOpt, res.Opt)
	}
}

// TestReduceWireForm pins /v1/reduce's result keys and values: exactly
// the 17 keys below (18 with verify_gap), each equal to the report a Lab
// running the same reductions in the same order returns. The tenant's
// second request finds the first one's solves in its cache, as the Lab's
// second run does.
func TestReduceWireForm(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	p := congestlb.Params{T: 2, Alpha: 1, Ell: 3}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	raw := []string{"0110", "0001"}
	in, err := parseInputs(fam, raw)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := congestlb.New()
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	ctx := context.Background()
	for _, verifyGap := range []bool{false, true} {
		body, err := json.Marshal(ReduceRequest{
			Family:    "linear",
			Params:    ParamsSpec{T: 2, Alpha: 1, Ell: 3},
			Inputs:    raw,
			Config:    CongestSpec{Seed: 7},
			VerifyGap: verifyGap,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := call(t, "POST", ts.URL+"/v1/reduce", "ka", string(body))
		if resp.StatusCode != 200 {
			t.Fatalf("reduce: %d %s", resp.StatusCode, data)
		}
		v := jobView(t, data)
		if v.Status != JobDone {
			t.Fatalf("reduce job %s: %s", v.Status, v.Error)
		}
		var got map[string]any
		if err := json.Unmarshal(v.Result, &got); err != nil {
			t.Fatal(err)
		}

		r, err := lab.RunReduction(ctx, fam, in, congestlb.CongestConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]any{
			"family":             r.Family,
			"players":            r.Players,
			"n":                  r.N,
			"cut_size":           r.CutSize,
			"bandwidth":          r.Bandwidth,
			"rounds":             r.Rounds,
			"blackboard_bits":    r.BlackboardBits,
			"blackboard_writes":  r.BlackboardWrites,
			"congest_total_bits": r.CongestTotalBits,
			"accounting_bound":   r.AccountingBound,
			"accounting_holds":   r.AccountingHolds(),
			"opt":                r.Opt,
			"decision":           r.Decision,
			"truth":              r.Truth,
			"correct":            r.Correct(),
			"solve_cache_hits":   r.SolveCacheHits,
			"solve_cache_misses": r.SolveCacheMisses,
		}
		if verifyGap {
			opt, err := lab.VerifyGap(ctx, fam, in)
			if err != nil {
				t.Fatal(err)
			}
			want["gap_opt"] = opt
		}
		// Round-trip the expectation so numbers compare as the decoded
		// float64s.
		data, err = json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		want = nil
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		keys := 17
		if verifyGap {
			keys = 18
		}
		if len(got) != keys || len(want) != keys {
			t.Errorf("verify_gap=%v: %d keys, want %d: %v", verifyGap, len(got), keys, got)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("verify_gap=%v: result\n got %v\nwant %v", verifyGap, got, want)
		}
	}
}

// TestExperimentsAndLastEnvelope: the experiments endpoint produces a v7
// envelope, re-served bare (and tenant-scoped) by /v1/experiments/last.
func TestExperimentsAndLastEnvelope(t *testing.T) {
	_, ts := testServer(t, twoTenants())

	// Before any run, last is a 404.
	resp, _ := call(t, "GET", ts.URL+"/v1/experiments/last", "ka", "")
	if resp.StatusCode != 404 {
		t.Fatalf("premature last envelope: %d", resp.StatusCode)
	}

	resp, data := call(t, "POST", ts.URL+"/v1/experiments", "ka", `{"ids":["lemma1"],"report":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("experiments: %d %s", resp.StatusCode, data)
	}
	v := jobView(t, data)
	if v.Status != JobDone {
		t.Fatalf("experiments job %s: %s", v.Status, v.Error)
	}
	var res ExperimentsResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Envelope.Schema != runner.Schema {
		t.Fatalf("envelope schema %q, want %q", res.Envelope.Schema, runner.Schema)
	}
	if res.Envelope.OK != 1 || len(res.Envelope.Experiments) != 1 {
		t.Fatalf("envelope wrong: %+v", res.Envelope)
	}
	if res.Report == "" {
		t.Fatal("report requested but absent")
	}

	resp, data = call(t, "GET", ts.URL+"/v1/experiments/last", "ka", "")
	if resp.StatusCode != 200 {
		t.Fatalf("last envelope: %d", resp.StatusCode)
	}
	var env runner.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Schema != runner.Schema || env.OK != 1 {
		t.Fatalf("re-served envelope wrong: schema %q ok %d", env.Schema, env.OK)
	}

	// bob never ran experiments; his last is still a 404.
	resp, _ = call(t, "GET", ts.URL+"/v1/experiments/last", "kb", "")
	if resp.StatusCode != 404 {
		t.Fatalf("cross-tenant last envelope: %d, want 404", resp.StatusCode)
	}
}

// TestExperimentsDeadlineCut: an experiments run cut by its deadline is
// a done job flagged cancelled that carries the complete envelope, one
// record per experiment, and /v1/experiments/last re-serves it.
func TestExperimentsDeadlineCut(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	ids := []string{"scaling", "theorem5", "lemma1"}
	resp, data := call(t, "POST", ts.URL+"/v1/experiments", "ka", `{"ids":["scaling","theorem5","lemma1"],"deadline_ms":5}`)
	if resp.StatusCode != 200 {
		t.Fatalf("experiments: %d %s", resp.StatusCode, data)
	}
	v := jobView(t, data)
	if v.Status != JobDone || !v.Cancelled {
		t.Fatalf("deadline-cut experiments job: %s cancelled=%v (%s), want done and cancelled", v.Status, v.Cancelled, v.Error)
	}
	var res ExperimentsResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	env := res.Envelope
	if len(env.Experiments) != len(ids) || env.Cancelled < 1 {
		t.Fatalf("envelope has %d records and %d cancelled, want %d and at least 1", len(env.Experiments), env.Cancelled, len(ids))
	}
	for i, r := range env.Experiments {
		if r.ID != ids[i] {
			t.Fatalf("record %d is %q, want %q", i, r.ID, ids[i])
		}
	}

	resp, last := call(t, "GET", ts.URL+"/v1/experiments/last", "ka", "")
	if resp.StatusCode != 200 {
		t.Fatalf("last envelope: %d %s", resp.StatusCode, last)
	}
	want, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if string(last) != string(want) {
		t.Fatalf("/v1/experiments/last re-served\n%s\nwant the job's envelope\n%s", last, want)
	}
}

// TestMetricsSurface: the ops endpoint renders the service gauges and
// the tenant-labeled counters in Prometheus form. Zero-valued series are
// elided by the registry snapshot, so the test arranges real load: two
// admitted slow jobs, both in flight.
func TestMetricsSurface(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	call(t, "POST", ts.URL+"/v1/solve", "kb", solveBody(t, pathSpec(4), ""))

	slow := `"async":true,"deadline_ms":30000`
	var ids []string
	for seed := int64(31); seed <= 32; seed++ {
		resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", solveBody(t, randSpec(240, 0.1, 9, seed), slow))
		if resp.StatusCode != 202 {
			t.Fatalf("admit: %d %s", resp.StatusCode, data)
		}
		ids = append(ids, jobView(t, data).ID)
	}

	// Both jobs hold their slots from admission, before the 202.
	resp, data := call(t, "GET", ts.URL+"/metrics", "", "")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	body := string(data)
	for _, want := range []string{
		"congestlb_serve_inflight_jobs 2",
		"congestlb_serve_shared_tier_entries 1",
		`congestlb_serve_requests_total{tenant="alice"} 2`,
		`congestlb_serve_requests_total{tenant="bob"} 1`,
		`congestlb_serve_inflight_jobs{tenant="alice"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	for _, id := range ids {
		call(t, "DELETE", ts.URL+"/v1/jobs/"+id, "ka", "")
	}
}

// TestStatusEndpoint: /v1/status reports every tenant's load in config
// order plus the shared-tier picture.
func TestStatusEndpoint(t *testing.T) {
	_, ts := testServer(t, twoTenants())
	call(t, "POST", ts.URL+"/v1/solve", "ka", solveBody(t, pathSpec(4), ""))
	resp, data := call(t, "GET", ts.URL+"/v1/status", "kb", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var body statusBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if body.Draining || body.Inflight != 0 {
		t.Fatalf("status %+v", body)
	}
	if len(body.Tenants) != 2 || body.Tenants[0].Name != "alice" || body.Tenants[1].Name != "bob" {
		t.Fatalf("tenants wrong: %+v", body.Tenants)
	}
	if body.SharedTier.Entries != 1 {
		t.Fatalf("tier entries %d, want 1", body.SharedTier.Entries)
	}
}

// TestDrain: during Close new work gets 503, admitted work finishes, and
// the job table stays readable.
func TestDrain(t *testing.T) {
	s, ts := testServer(t, twoTenants())

	resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka",
		solveBody(t, randSpec(120, 0.15, 5, 29), `"async":true,"deadline_ms":2000`))
	if resp.StatusCode != 202 {
		t.Fatalf("admit: %d %s", resp.StatusCode, data)
	}
	id := jobView(t, data).ID

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// The draining flag flips before the drain completes; new work is
	// refused while the admitted job is still allowed to finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, data = call(t, "POST", ts.URL+"/v1/solve", "ka", solveBody(t, pathSpec(3), ""))
		if resp.StatusCode == 503 {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never refused new work: last %d %s", resp.StatusCode, data)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Draining answers before the body is read, so a malformed body is a
	// 503 too.
	if resp, data = call(t, "POST", ts.URL+"/v1/solve", "ka", `{`); resp.StatusCode != 503 {
		t.Fatalf("malformed body while draining: %d %s, want 503", resp.StatusCode, data)
	}

	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	resp, data = call(t, "GET", ts.URL+"/v1/jobs/"+id, "ka", "")
	v := jobView(t, data)
	if resp.StatusCode != 200 || (v.Status != JobDone && v.Status != JobFailed) {
		t.Fatalf("admitted job after drain: %d %+v", resp.StatusCode, v)
	}
	if v.Status == JobDone && v.Result == nil {
		t.Fatalf("drained job has no result: %+v", v)
	}
}

// TestConcurrentClose: racing Closes — exactly one owner returns nil,
// the rest observe ErrClosed only after the teardown finished.
func TestConcurrentClose(t *testing.T) {
	s, _ := testServer(t, twoTenants())
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- s.Close() }()
	}
	var nilCount, closedCount int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			nilCount++
		case errors.Is(err, congestlb.ErrClosed):
			closedCount++
		default:
			t.Fatalf("unexpected close error: %v", err)
		}
	}
	if nilCount != 1 || closedCount != 1 {
		t.Fatalf("close results: %d nil / %d ErrClosed, want 1/1", nilCount, closedCount)
	}
	// And a third, after the fact, is ErrClosed immediately.
	if err := s.Close(); !errors.Is(err, congestlb.ErrClosed) {
		t.Fatalf("late close: %v", err)
	}
}

// TestConfigValidate covers the config error surface New refuses.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Tenants: []TenantConfig{{Name: "", APIKey: "k"}}},
		{Tenants: []TenantConfig{{Name: "a", APIKey: ""}}},
		{Tenants: []TenantConfig{{Name: "a", APIKey: "k"}, {Name: "a", APIKey: "k2"}}},
		{Tenants: []TenantConfig{{Name: "a", APIKey: "k"}, {Name: "b", APIKey: "k"}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestLoadConfigIgnoresSolverWorkers: a tenants file written for a daemon
// that still had a per-tenant solver worker count, an accept queue and an
// executor pool loads unchanged, and those keys have no effect.
func TestLoadConfigIgnoresSolverWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	body := `{"tenants":[{"name":"alice","api_key":"ka","quota":{"solver_workers":4,"max_concurrent_jobs":2}}],"queue_depth":4,"executors":2}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Tenants: []TenantConfig{{Name: "alice", APIKey: "ka", Quota: Quota{MaxConcurrentJobs: 2}}}}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("loaded %+v, want %+v", cfg, want)
	}
}

// TestParseTenantFlag covers the -tenant shorthand.
func TestParseTenantFlag(t *testing.T) {
	tc, err := ParseTenantFlag("alice:ka:3")
	if err != nil || tc.Name != "alice" || tc.APIKey != "ka" || tc.Quota.MaxConcurrentJobs != 3 {
		t.Fatalf("parse: %+v %v", tc, err)
	}
	if _, err := ParseTenantFlag("alice"); err == nil {
		t.Fatal("keyless shorthand accepted")
	}
	if _, err := ParseTenantFlag("alice:ka:zero"); err == nil {
		t.Fatal("non-numeric max_jobs accepted")
	}
}
