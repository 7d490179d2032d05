package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congestlb"
	"congestlb/internal/obs"
)

// Server is the congestlbd service: tenant registry, admission pipeline,
// job table and HTTP handlers. Build one with New, mount Handler on a
// listener (StartHTTP), and Close to drain.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	tier   *congestlb.SharedSolveTier
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	order  []string // tenant names in config order, for stable /v1/status
	jobs   *jobTable
	pipe   *pipeline
	mux    *http.ServeMux

	// inflight counts admitted-but-unfinished jobs daemon-wide.
	inflight atomic.Int64
	// draining flips when Close starts: new work gets 503.
	draining atomic.Bool

	closeMu   sync.Mutex
	closeDone chan struct{}
}

// New builds a Server from cfg: one private Lab per tenant over one
// shared solve tier, a fresh metrics registry, and the executor pool.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		reg:    obs.NewRegistry(),
		tier:   congestlb.NewSharedSolveTier(cfg.SharedTierEntries),
		byKey:  make(map[string]*Tenant, len(cfg.Tenants)),
		byName: make(map[string]*Tenant, len(cfg.Tenants)),
		jobs:   newJobTable(),
		pipe:   newPipeline(cfg.executors(), cfg.queueDepth()),
	}
	for _, tc := range cfg.Tenants {
		t, err := newTenant(tc, s.tier, s.reg)
		if err != nil {
			for _, prev := range s.byName {
				prev.Lab.Close()
			}
			return nil, err
		}
		s.byKey[tc.APIKey] = t
		s.byName[tc.Name] = t
		s.order = append(s.order, tc.Name)
	}
	s.mux = s.routes()
	return s, nil
}

// Handler returns the server's root handler: the /v1 API plus the ops
// surface (/metrics, /metrics.json, /spans.json, /debug/pprof/*) on the
// same mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry (tests and embedding
// binaries).
func (s *Server) Registry() *obs.Registry { return s.reg }

// routes wires the mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/reduce", s.handleReduce)
	mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/experiments/last", s.handleLastEnvelope)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// Ops surface: the standard obs handler, with service gauges
	// refreshed at scrape time so queue depth and in-flight counts are
	// live values, not stale increments.
	ops := obs.Handler(s.reg)
	withRefresh := func(w http.ResponseWriter, r *http.Request) {
		s.refreshGauges()
		ops.ServeHTTP(w, r)
	}
	mux.HandleFunc("/metrics", withRefresh)
	mux.HandleFunc("/metrics.json", withRefresh)
	mux.HandleFunc("/spans.json", withRefresh)
	mux.HandleFunc("/debug/pprof/", withRefresh)
	mux.HandleFunc("/debug/pprof/cmdline", withRefresh)
	mux.HandleFunc("/debug/pprof/profile", withRefresh)
	mux.HandleFunc("/debug/pprof/symbol", withRefresh)
	mux.HandleFunc("/debug/pprof/trace", withRefresh)
	return mux
}

// refreshGauges publishes the instantaneous load picture into the
// registry: global and per-tenant queue depth and in-flight counts plus
// shared-tier occupancy.
func (s *Server) refreshGauges() {
	s.reg.Gauge(obs.MServeQueueDepth).Set(int64(s.pipe.depth()))
	s.reg.Gauge(obs.MServeInflight).Set(s.inflight.Load())
	ts := s.tier.Stats()
	s.reg.Gauge(obs.MServeTierEntries).Set(int64(ts.Entries))
	s.reg.Gauge(obs.MServeTierHits).Set(int64(ts.Hits))
	for name, t := range s.byName {
		load := t.Lab.Load()
		s.reg.Gauge(obs.Labeled(obs.MServeQueueDepth, "tenant", name)).Set(int64(load.QueueDepth))
		s.reg.Gauge(obs.Labeled(obs.MServeInflight, "tenant", name)).Set(t.inflight.Load())
	}
}

// errorBody is the JSON error shape every non-2xx response uses.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// tenantFor authenticates the request: Authorization: Bearer <key> or
// X-API-Key: <key>. nil means the 401 was already written.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) *Tenant {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if t, ok := s.byKey[key]; ok && key != "" {
		return t
	}
	writeError(w, http.StatusUnauthorized, "unknown or missing API key")
	return nil
}

// rejectBusy writes the backpressure response.
func (s *Server) rejectBusy(w http.ResponseWriter, code int, why string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.cfg.retryAfter()))
	writeError(w, code, "%s", why)
}

// maxBody bounds request bodies; a larger one is a 413.
const maxBody = 32 << 20

// writeBodyError answers a failed body read or decode: 413 when the body
// ran past maxBody, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body: over the %d-byte limit", tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "body: %v", err)
}

// decodeBody decodes the JSON request body from r into v (strictly —
// unknown fields are an error, catching typos like "dedaline_ms" before
// they silently change semantics). False means the error response was
// already written.
func decodeBody(w http.ResponseWriter, r io.Reader, v any) bool {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// decodeSolve reads a POST /v1/solve body into a pooled buffer and
// decodes it: scanSolve first, and the strict decode plus GraphSpec.graph
// for every body the scanner declines. The returned request carries the
// options only; its Graph is left empty. False means the error response
// was already written.
func decodeSolve(w http.ResponseWriter, r *http.Request) (SolveRequest, *congestlb.Graph, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		writeBodyError(w, err)
		return SolveRequest{}, nil, false
	}
	if req, g, ok := scanSolve(buf.Bytes(), memBudget); ok {
		return req, g, true
	}
	var req SolveRequest
	if !decodeBody(w, bytes.NewReader(buf.Bytes()), &req) {
		return req, nil, false
	}
	g, err := req.Graph.graph(memBudget)
	if err != nil {
		writeError(w, statusOf(err), "%v", err)
		return req, nil, false
	}
	req.Graph = GraphSpec{}
	return req, g, true
}

// effectiveDeadline resolves the job deadline from the request and the
// tenant quota: the quota caps what the request asks for and supplies
// the budget when the request is silent.
func effectiveDeadline(req jobOptions, q Quota) time.Duration {
	max := q.maxDeadline()
	if req.DeadlineMS <= 0 {
		return max
	}
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d > max {
		return max
	}
	return d
}

// submit runs the admission protocol for one parsed request and, when
// admitted, executes run on the pipeline. Sync requests block until the
// job finishes; async ones return 202 with the job id immediately.
//
// Admission order: draining → per-tenant bound → global bound → queue
// capacity. Every rejection is a 429 with Retry-After (503 when
// draining) and books the tenant's rejected counter; nothing about one
// tenant's saturation blocks another tenant's requests.
func (s *Server) submit(w http.ResponseWriter, t *Tenant, kind string, opts jobOptions, run func(ctx context.Context, job *Job) (any, error, bool)) {
	if s.draining.Load() {
		s.rejectBusy(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	t.requests.Inc()
	if n := t.inflight.Add(1); n > int64(t.quota.maxConcurrent()) {
		t.inflight.Add(-1)
		t.rejected.Inc()
		s.rejectBusy(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %s at max_concurrent_jobs (%d)", t.Name, t.quota.maxConcurrent()))
		return
	}
	if n := s.inflight.Add(1); n > int64(s.cfg.maxInflight()) {
		s.inflight.Add(-1)
		t.inflight.Add(-1)
		t.rejected.Inc()
		s.rejectBusy(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at max_inflight (%d)", s.cfg.maxInflight()))
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), effectiveDeadline(opts, t.quota))
	job := newJob(fmt.Sprintf("%s-%d", t.Name, t.seq.Add(1)), t.Name, kind, cancel)
	s.jobs.add(job)
	tk := &task{job: job, run: func() {
		defer func() {
			cancel()
			t.inflight.Add(-1)
			s.inflight.Add(-1)
			s.jobs.retire(job)
		}()
		defer func() {
			// Fault containment, service edition: a panicking job fails
			// alone; the executor, the tenant and the daemon live on.
			if rec := recover(); rec != nil {
				job.finish(nil, fmt.Sprintf("panic: %v", rec), false)
			}
		}()
		res, err, cancelled := run(ctx, job)
		if err != nil {
			job.finish(nil, err.Error(), cancelled)
			return
		}
		data, merr := json.Marshal(res)
		if merr != nil {
			job.finish(nil, merr.Error(), false)
			return
		}
		job.finish(data, "", cancelled)
	}}
	if !s.pipe.trySubmit(tk) {
		cancel()
		t.inflight.Add(-1)
		s.inflight.Add(-1)
		t.rejected.Inc()
		s.jobs.retire(job)
		job.finish(nil, "rejected: accept queue full", false)
		s.rejectBusy(w, http.StatusTooManyRequests, "accept queue full")
		return
	}

	if opts.Async {
		writeJSON(w, http.StatusAccepted, job.View())
		return
	}
	<-job.done
	v := job.View()
	code := http.StatusOK
	if v.Status == JobFailed {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, v)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	req, g, ok := decodeSolve(w, r)
	if !ok {
		return
	}
	if req.MaxSteps < 0 {
		writeError(w, http.StatusBadRequest, "max_steps must be non-negative")
		return
	}
	s.submit(w, t, "solve", req.jobOptions, func(ctx context.Context, job *Job) (any, error, bool) {
		return t.runSolve(ctx, g, req, job)
	})
}

func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	var req ReduceRequest
	if !decodeBody(w, http.MaxBytesReader(w, r.Body, maxBody), &req) {
		return
	}
	fam, err := familyFrom(req.Family, req.Params, memBudget)
	if err != nil {
		writeError(w, statusOf(err), "%v", err)
		return
	}
	in, err := parseInputs(fam, req.Inputs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := req.Config.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submit(w, t, "reduce", req.jobOptions, func(ctx context.Context, job *Job) (any, error, bool) {
		return t.runReduce(ctx, fam, in, req, job)
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	var req ExperimentsRequest
	if !decodeBody(w, http.MaxBytesReader(w, r.Body, maxBody), &req) {
		return
	}
	s.submit(w, t, "experiments", req.jobOptions, func(ctx context.Context, job *Job) (any, error, bool) {
		return t.runExperiments(ctx, req, job)
	})
}

func (s *Server) handleLastEnvelope(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	env := t.getLastEnvelope()
	if env == nil {
		writeError(w, http.StatusNotFound, "tenant %s has no completed experiments run", t.Name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(env)
}

// jobFor resolves {id} tenant-scoped: a tenant can only see its own
// jobs; anything else is the same 404 an unknown id gets.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request, t *Tenant) *Job {
	id := r.PathValue("id")
	job := s.jobs.get(id)
	if job == nil || job.Tenant != t.Name {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil
	}
	return job
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	job := s.jobFor(w, r, t)
	if job == nil {
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	job := s.jobFor(w, r, t)
	if job == nil {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.View())
}

// sseEvent is the wire form of one incumbent event.
type sseEvent struct {
	Weight int64 `json:"weight"`
	Steps  int64 `json:"steps"`
	Final  bool  `json:"final,omitempty"`
}

// handleJobStream serves the job's incumbent progress as Server-Sent
// Events: one "incumbent" event per improvement (strictly increasing
// weights — a Monotonic guard feeds the log) and exactly one closing
// "done" event carrying the job view once the result is final.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	job := s.jobFor(w, r, t)
	if job == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, unsub := job.subscribe()
	defer unsub()
	emit := func(ev obs.ProgressEvent) {
		data, _ := json.Marshal(sseEvent{Weight: ev.Weight, Steps: ev.Steps, Final: ev.Final})
		fmt.Fprintf(w, "event: incumbent\ndata: %s\n\n", data)
	}
	for _, ev := range replay {
		emit(ev)
	}
	fl.Flush()

	finished := false
	for !finished {
		select {
		case ev := <-live:
			emit(ev)
			fl.Flush()
		case <-job.done:
			// Drain events that raced the close before the terminator.
			for {
				select {
				case ev := <-live:
					emit(ev)
				default:
					finished = true
				}
				if finished {
					break
				}
			}
		case <-r.Context().Done():
			return
		}
	}
	data, _ := json.Marshal(job.View())
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	fl.Flush()
}

// statusTenant is one tenant's slice of the /v1/status payload.
type statusTenant struct {
	Name     string              `json:"name"`
	Inflight int64               `json:"inflight"`
	Load     congestlb.LoadStats `json:"load"`
}

// statusBody is the GET /v1/status payload.
type statusBody struct {
	Draining   bool                           `json:"draining"`
	Inflight   int64                          `json:"inflight"`
	QueueDepth int                            `json:"queue_depth"`
	SharedTier congestlb.SharedSolveTierStats `json:"shared_tier"`
	Tenants    []statusTenant                 `json:"tenants"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if t := s.tenantFor(w, r); t == nil {
		return
	}
	body := statusBody{
		Draining:   s.draining.Load(),
		Inflight:   s.inflight.Load(),
		QueueDepth: s.pipe.depth(),
		SharedTier: s.tier.Stats(),
	}
	for _, name := range s.order {
		t := s.byName[name]
		body.Tenants = append(body.Tenants, statusTenant{
			Name:     t.Name,
			Inflight: t.inflight.Load(),
			Load:     t.Lab.Load(),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// Close drains the service: new work is refused (503), queued and
// running jobs finish, then every tenant Lab is closed. The first Close
// owns the teardown and returns its result; every later or concurrent
// Close blocks until that teardown finishes, then returns
// congestlb.ErrClosed — mirroring Lab.Close's contract, so any Close
// returning means the daemon is fully drained.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closeDone != nil {
		done := s.closeDone
		s.closeMu.Unlock()
		<-done
		return congestlb.ErrClosed
	}
	s.closeDone = make(chan struct{})
	done := s.closeDone
	s.closeMu.Unlock()

	s.draining.Store(true)
	s.pipe.drain()
	var firstErr error
	for _, name := range s.order {
		if err := s.byName[name].Lab.Close(); err != nil && !errors.Is(err, congestlb.ErrClosed) && firstErr == nil {
			firstErr = err
		}
	}
	close(done)
	return firstErr
}
