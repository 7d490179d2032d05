package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lineWriter captures stderr lines and signals when the serving banner
// (with the bound address) appears.
type lineWriter struct {
	mu    sync.Mutex
	buf   strings.Builder
	ready chan string
	sent  bool
}

func newLineWriter() *lineWriter { return &lineWriter{ready: make(chan string, 1)} }

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		for _, line := range strings.Split(w.buf.String(), "\n") {
			if strings.Contains(line, "serving") {
				if i := strings.Index(line, "http://"); i >= 0 {
					w.sent = true
					w.ready <- strings.TrimSpace(line[i:])
					break
				}
			}
		}
	}
	return len(p), nil
}

func (w *lineWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestRunLifecycle drives the full daemon lifecycle: start on a free
// port, answer a request, drain on context cancellation (the test's
// stand-in for SIGTERM) and return nil — the exit-0 path.
func TestRunLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newLineWriter()
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-tenant", "alice:ka"}, w)
	}()

	var base string
	select {
	case base = <-w.ready:
	case err := <-errc:
		t.Fatalf("daemon exited early: %v\nstderr:\n%s", err, w.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never announced its address\nstderr:\n%s", w.String())
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	// A real request proves the tenant map made it from the flag to the
	// running service.
	body := strings.NewReader(`{"graph":{"n":3,"edges":[[0,1],[1,2]]}}`)
	req, _ := http.NewRequest("POST", base+"/v1/solve", body)
	req.Header.Set("Authorization", "Bearer ka")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || view.Status != "done" {
		t.Fatalf("solve status %d view %+v", resp.StatusCode, view)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain returned %v\nstderr:\n%s", err, w.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never drained\nstderr:\n%s", w.String())
	}
	if out := w.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Fatalf("drain banners missing:\n%s", out)
	}
}

func TestRunConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	cfg := `{"tenants":[{"name":"a","api_key":"k1"},{"name":"b","api_key":"k2","quota":{"max_concurrent_jobs":1}}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o600); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := newLineWriter()
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-config", path}, w)
	}()
	select {
	case base := <-w.ready:
		if !strings.Contains(w.String(), "serving 2 tenants") {
			t.Fatalf("tenant count banner wrong:\n%s", w.String())
		}
		_ = base
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started")
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	cases := [][]string{
		{"-addr", "127.0.0.1:0"},                                      // no tenants
		{"-addr", "127.0.0.1:0", "-tenant", "nokey"},                  // malformed tenant
		{"-addr", "127.0.0.1:0", "-config", "/no/such"},               // missing config
		{"-addr", "127.0.0.1:0", "-tenant", "a:k:-3"},                 // bad max_jobs
		{"-addr", "127.0.0.1:0", "-tenant", "a:k", "-tenant", "a:k2"}, // dup name
		{"-addr", "127.0.0.1:0", "-tenant", "a:k", "-queue", "4"},     // retired flag
		{"-addr", "127.0.0.1:0", "-tenant", "a:k", "-executors", "2"}, // retired flag
	}
	for _, args := range cases {
		if err := run(ctx, args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestTenantFlagRoundTrip(t *testing.T) {
	// Guard the documented shorthand: quota lands where admission reads it.
	ctx, cancel := context.WithCancel(context.Background())
	w := newLineWriter()
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-tenant", "alice:ka:2", "-max-inflight", "4"}, w)
	}()
	var base string
	select {
	case base = <-w.ready:
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started")
	}
	req, _ := http.NewRequest("GET", base+"/v1/status", nil)
	req.Header.Set("X-API-Key", "ka")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(raw), `"name": "alice"`) && !strings.Contains(string(raw), `"name":"alice"`) {
		t.Fatalf("status %d body %s", resp.StatusCode, raw)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
