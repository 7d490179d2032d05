// Command congestlbd is the multi-tenant solve/experiment daemon: an
// HTTP (JSON + SSE) service over per-tenant congestlb.Labs.
//
// Usage:
//
//	congestlbd [-addr :8080] [-config tenants.json]
//	           [-tenant name:key[:max_jobs]]... [-shared-tier-entries n]
//	           [-max-inflight n] [-drain-timeout 30s]
//
// Tenants come from -config (a serve.Config JSON file) and/or repeated
// -tenant flags; at least one tenant is required. Each tenant gets a
// private Lab — its own solve cache and experiment pool, bounded by its
// quota — while one shared
// content-addressed tier underneath dedups identical solves across
// tenants: a graph any tenant already paid to solve costs everyone else
// zero branch-and-bound steps (visible as "shared_hits" in solve
// responses).
//
// The API surface (see docs/service.md for the reference and curl
// examples):
//
//	POST   /v1/solve             exact MaxIS on a submitted graph
//	POST   /v1/reduce            Theorem 5 reduction run (+ gap audit)
//	POST   /v1/experiments       experiment suite → v12 envelope
//	GET    /v1/experiments/last  bare envelope (benchjson -experiments URL)
//	GET    /v1/jobs/{id}         job status/result
//	GET    /v1/jobs/{id}/stream  live incumbent progress (SSE)
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/status            admission, tenant load and tier snapshot
//	GET    /healthz              liveness
//	/metrics, /metrics.json, /spans.json, /debug/pprof/*  ops surface
//
// Backpressure: a request is admitted against the per-tenant and the
// global in-flight bounds before its body is read; the excess gets 429
// with a Retry-After header. SIGTERM/SIGINT drains gracefully — new work
// is refused, admitted jobs finish, tenant Labs close, the process exits
// 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"congestlb/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "congestlbd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx fires (the signal), then
// drains. Split from main so tests can drive the full lifecycle with a
// cancellable context instead of process signals.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("congestlbd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	configPath := fs.String("config", "", "serve.Config JSON file (tenants + limits)")
	var tenantFlags []string
	fs.Func("tenant", "tenant shorthand name:key[:max_jobs] (repeatable)", func(s string) error {
		tenantFlags = append(tenantFlags, s)
		return nil
	})
	tierEntries := fs.Int("shared-tier-entries", 0, "cross-tenant solve tier entry bound (0 = default)")
	maxInflight := fs.Int("max-inflight", 0, "global admitted-job bound (0 = default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight HTTP requests at shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg serve.Config
	if *configPath != "" {
		var err error
		cfg, err = serve.LoadConfig(*configPath)
		if err != nil {
			return err
		}
	}
	for _, s := range tenantFlags {
		tc, err := serve.ParseTenantFlag(s)
		if err != nil {
			return err
		}
		cfg.Tenants = append(cfg.Tenants, tc)
	}
	if *tierEntries > 0 {
		cfg.SharedTierEntries = *tierEntries
	}
	if *maxInflight > 0 {
		cfg.MaxInflight = *maxInflight
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	hs, err := serve.StartHTTP(*addr, srv.Handler())
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(stderr, "congestlbd: serving %d tenants on %s\n", len(cfg.Tenants), hs.URL())

	<-ctx.Done()
	fmt.Fprintln(stderr, "congestlbd: draining")
	// Drain order: stop taking new jobs and finish the admitted ones
	// first (srv.Close), then let the HTTP layer flush the responses of
	// requests that were waiting on those jobs.
	cerr := srv.Close()
	herr := hs.Shutdown(*drainTimeout)
	fmt.Fprintln(stderr, "congestlbd: drained")
	if cerr != nil {
		return cerr
	}
	return herr
}
