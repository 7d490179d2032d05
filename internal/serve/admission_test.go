package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainRace races Close against a stream of sync solves: every
// response is 200 or 503 (admission and Close are ordered, so no request
// slips between the draining check and its slot), and Close returns only
// once the job of every admitted request has finished.
func TestDrainRace(t *testing.T) {
	const rounds, clients, perClient, closeAfter = 40, 8, 40, 20
	body := solveBody(t, pathSpec(4), "")
	for round := 0; round < rounds; round++ {
		s, err := New(twoTenants())
		if err != nil {
			t.Fatal(err)
		}
		var answered atomic.Int64
		closed := make(chan []string, 1)
		var wg sync.WaitGroup
		bad := make(chan string, clients*perClient)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(key string) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
					req.Header.Set("X-API-Key", key)
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, req)
					if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
						bad <- fmt.Sprintf("%d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
					}
					if answered.Add(1) == closeAfter {
						go func() {
							s.Close()
							closed <- unfinished(s)
						}()
					}
				}
			}([]string{"ka", "kb"}[c%2])
		}
		wg.Wait()
		if left := <-closed; len(left) > 0 {
			t.Errorf("round %d: Close returned with %s", round, strings.Join(left, ", "))
		}
		close(bad)
		if n := len(bad); n > 0 {
			t.Errorf("round %d: %d requests racing Close got neither 200 nor 503, the first %s", round, n, <-bad)
		}
	}
}

// unfinished lists what still holds a slot or runs on s: its in-flight
// counts and every job in the table that is still running.
func unfinished(s *Server) []string {
	var left []string
	if n := s.inflight.Load(); n != 0 {
		left = append(left, fmt.Sprintf("%d requests in flight", n))
	}
	for _, t := range s.byName {
		if n := t.inflight.Load(); n != 0 {
			left = append(left, fmt.Sprintf("%d of tenant %s's requests in flight", n, t.Name))
		}
	}
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	for id, j := range s.jobs.byID {
		if v := j.View(); v.Status != JobDone && v.Status != JobFailed {
			left = append(left, fmt.Sprintf("job %s %s", id, v.Status))
		}
	}
	return left
}

// upload is a POST whose body the test writes piecewise through a pipe.
type upload struct {
	w    *io.PipeWriter
	done chan uploadResult
}

type uploadResult struct {
	code int
	body []byte
	err  error
}

// startUpload sends a POST to url with key and returns before any of its
// body is written. The pipe closes at cleanup, so a test that fails with
// the upload open does not leave the test server waiting on it.
func startUpload(t *testing.T, url, key string) *upload {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest("POST", url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", key)
	u := &upload{w: pw, done: make(chan uploadResult, 1)}
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			u.done <- uploadResult{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		u.done <- uploadResult{code: resp.StatusCode, body: data, err: err}
	}()
	return u
}

// wait returns the upload's response, failing the test after 10 s.
func (u *upload) wait(t *testing.T) uploadResult {
	t.Helper()
	select {
	case r := <-u.done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("no response to the upload after 10 s")
		return uploadResult{}
	}
}

// waitInflight polls until tenant holds n admission slots, failing the
// test after 5 s.
func waitInflight(t *testing.T, s *Server, tenant string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.byName[tenant].inflight.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s holds %d slots, want %d", tenant, s.byName[tenant].inflight.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlotBeforeBody: a request takes its admission slot before its body
// is read, so a tenant's uploads count against its bound. While alice's
// one slot is held by a solve whose body is still uploading, her next
// solve gets 429, and so does a malformed body; the first solve answers
// 200 once its body completes.
func TestSlotBeforeBody(t *testing.T) {
	cfg := twoTenants()
	cfg.Tenants[0].Quota.MaxConcurrentJobs = 1
	s, ts := testServer(t, cfg)

	up := startUpload(t, ts.URL+"/v1/solve", "ka")
	body := solveBody(t, pathSpec(4), "")
	if _, err := io.WriteString(up.w, body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	waitInflight(t, s, "alice", 1)

	for _, b := range []string{solveBody(t, pathSpec(5), ""), `{`} {
		resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", b)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("alice's %s during her upload: %d %s, want 429", b, resp.StatusCode, data)
		}
	}
	if resp, data := call(t, "POST", ts.URL+"/v1/solve", "kb", solveBody(t, pathSpec(5), "")); resp.StatusCode != 200 {
		t.Fatalf("bob during alice's upload: %d %s, want 200", resp.StatusCode, data)
	}

	if _, err := io.WriteString(up.w, body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	up.w.Close()
	r := up.wait(t)
	if r.code != 200 {
		t.Fatalf("the upload's solve: %d %s, want 200", r.code, r.body)
	}
	if res := solveResult(t, jobView(t, r.body)); res.Weight != 2 || !res.Optimal {
		t.Fatalf("path(4) solve %+v, want optimal weight 2", res)
	}
}

// TestStalledUpload: an upload still unfinished at the tenant's deadline
// cap is refused with 408 and gives its slot back, so neither the tenant
// nor Close waits on it any longer.
func TestStalledUpload(t *testing.T) {
	cfg := twoTenants()
	cfg.Tenants[0].Quota = Quota{MaxConcurrentJobs: 1, MaxDeadlineMS: 200}
	s, ts := testServer(t, cfg)

	up := startUpload(t, ts.URL+"/v1/solve", "ka")
	if _, err := io.WriteString(up.w, `{"graph":`); err != nil {
		t.Fatal(err)
	}
	r := up.wait(t)
	if r.code != http.StatusRequestTimeout || !strings.Contains(string(r.body), "timeout") {
		t.Fatalf("stalled upload: %d %s, want 408 naming the timeout", r.code, r.body)
	}
	waitInflight(t, s, "alice", 0)
	if resp, data := call(t, "POST", ts.URL+"/v1/solve", "ka", solveBody(t, pathSpec(3), "")); resp.StatusCode != 200 {
		t.Fatalf("alice after her stalled upload: %d %s, want 200", resp.StatusCode, data)
	}

	// A second stalled upload holds its slot while Close drains, until
	// its deadline gives the slot back.
	up = startUpload(t, ts.URL+"/v1/solve", "ka")
	if _, err := io.WriteString(up.w, `{"graph":`); err != nil {
		t.Fatal(err)
	}
	waitInflight(t, s, "alice", 1)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waits on a stalled upload after 10 s")
	}
	if r := up.wait(t); r.code != http.StatusRequestTimeout {
		t.Fatalf("upload stalled across Close: %d %s, want 408", r.code, r.body)
	}
}
