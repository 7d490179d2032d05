package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"congestlb"
	"congestlb/internal/obs"
)

// Tenant is one API-key principal: a private Lab (own solve cache and
// experiment pool) plus quota state. The only thing tenants share is the
// server's read-through solve tier — results, never failures,
// cancellations or cache pressure.
type Tenant struct {
	Name  string
	key   string
	Lab   *congestlb.Lab
	quota Quota

	// inflight counts admitted-but-unfinished jobs; admission bounds it
	// by quota.maxConcurrent.
	inflight atomic.Int64
	// seq numbers this tenant's jobs.
	seq atomic.Int64

	// requests/rejected are the tenant-labeled admission counters in the
	// server registry.
	requests *obs.Counter
	rejected *obs.Counter

	// lastEnvelope is the tenant's most recent completed experiments
	// envelope, served bare by GET /v1/experiments/last for benchjson.
	envMu        sync.Mutex
	lastEnvelope json.RawMessage
}

// newTenant builds the tenant's private Lab over the shared tier and
// interns its labeled counters.
func newTenant(cfg TenantConfig, tier *congestlb.SharedSolveTier, reg *obs.Registry) (*Tenant, error) {
	opts := []congestlb.Option{
		congestlb.WithSharedSolveTier(tier),
		congestlb.WithMemoryCacheSize(cfg.Quota.MemoryCacheEntries),
		congestlb.WithJobs(cfg.Quota.Jobs),
	}
	if cfg.CacheDir != "" {
		opts = append(opts, congestlb.WithSolveCacheDir(cfg.CacheDir))
	}
	lab, err := congestlb.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: %w", cfg.Name, err)
	}
	return &Tenant{
		Name:     cfg.Name,
		key:      cfg.APIKey,
		Lab:      lab,
		quota:    cfg.Quota,
		requests: reg.Counter(obs.Labeled(obs.MServeRequests, "tenant", cfg.Name)),
		rejected: reg.Counter(obs.Labeled(obs.MServeRejected, "tenant", cfg.Name)),
	}, nil
}

// setLastEnvelope stores the marshalled envelope of a completed
// experiments run.
func (t *Tenant) setLastEnvelope(data json.RawMessage) {
	t.envMu.Lock()
	t.lastEnvelope = data
	t.envMu.Unlock()
}

// getLastEnvelope returns the stored envelope (nil when no run finished
// yet).
func (t *Tenant) getLastEnvelope() json.RawMessage {
	t.envMu.Lock()
	defer t.envMu.Unlock()
	return t.lastEnvelope
}

// ctxCut reports whether err is the job context firing (deadline or
// cancel) — the cases where a partial result is the contract, not a
// failure.
func ctxCut(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runSolve executes a solve job: the graph solves through the tenant's
// private session (exact per-request attribution) with incumbent
// progress streamed into the job's event log. A context-cut solve is
// still a done job: the incumbent is a valid independent set, returned
// with Cancelled set.
func (t *Tenant) runSolve(ctx context.Context, g *congestlb.Graph, req SolveRequest, job *Job) (any, error, bool) {
	guard := obs.NewMonotonic(job)
	sess := t.Lab.NewSolveSession().WithContext(ctx).WithProgress(guard)
	sol, err := sess.Exact(g, congestlb.SolverOptions{MaxSteps: req.MaxSteps})
	guard.Finish(sol.Weight, sol.Steps)
	cancelled := err != nil && ctxCut(err)
	if err != nil && !cancelled {
		return nil, err, false
	}
	return SolveResult{
		Weight:    sol.Weight,
		Set:       sol.Set,
		Optimal:   sol.Optimal && !cancelled,
		Steps:     sol.Steps,
		Cancelled: cancelled,
		Cache:     sess.Stats(),
	}, nil, cancelled
}

// runReduce executes a reduce job: RunReduction through the tenant Lab,
// optionally followed by the VerifyGap audit.
func (t *Tenant) runReduce(ctx context.Context, fam congestlb.Family, in congestlb.Inputs, req ReduceRequest, job *Job) (any, error, bool) {
	cfg := congestlb.CongestConfig{
		BandwidthBits: req.Config.BandwidthBits,
		MaxRounds:     req.Config.MaxRounds,
		Seed:          req.Config.Seed,
	}
	report, err := t.Lab.RunReduction(ctx, fam, in, cfg)
	if err != nil {
		return nil, err, ctxCut(err)
	}
	res := ReduceResult{
		SimulationReport: report,
		AccountingHolds:  report.AccountingHolds(),
		Correct:          report.Correct(),
	}
	if req.VerifyGap {
		opt, err := t.Lab.VerifyGap(ctx, fam, in)
		if err != nil {
			return nil, fmt.Errorf("verify gap: %w", err), ctxCut(err)
		}
		res.GapOpt = &opt
	}
	return res, nil, false
}

// runExperiments executes an experiments job through the tenant Lab's
// worker pool and records the envelope for GET /v1/experiments/last.
// A run the job's context cut returns its error together with a complete
// envelope that records the unfinished experiments cancelled; the job is
// then done, flagged cancelled, and carries the envelope, as a cut solve
// carries its incumbent. Any other error fails the job.
func (t *Tenant) runExperiments(ctx context.Context, req ExperimentsRequest, job *Job) (any, error, bool) {
	var buf strings.Builder
	env, err := t.Lab.RunExperiments(ctx, req.IDs, &buf)
	if err != nil && env.Cancelled == 0 {
		return nil, err, ctxCut(err)
	}
	if data, merr := json.Marshal(env); merr == nil {
		t.setLastEnvelope(data)
	}
	res := ExperimentsResult{Envelope: env}
	if req.Report {
		res.Report = buf.String()
	}
	return res, nil, env.Cancelled > 0
}
