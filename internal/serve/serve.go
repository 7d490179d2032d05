package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congestlb"
	"congestlb/internal/obs"
)

// Server is the congestlbd service: tenant registry, admission, job
// table and HTTP handlers. Build one with New, mount Handler on a
// listener (StartHTTP), and Close to drain. It starts no goroutine of its
// own: a sync job runs on its HTTP handler's goroutine, and an async job
// on one goroutine started after the 202.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	tier   *congestlb.SharedSolveTier
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	order  []string // tenant names in config order, for stable /v1/status
	jobs   *jobTable
	mux    *http.ServeMux

	// inflight counts admitted-but-unfinished requests daemon-wide.
	inflight atomic.Int64
	// draining flips when Close starts: new work gets 503.
	draining atomic.Bool
	// gate orders admission against Close: admit holds it shared from
	// its draining check through running.Add, and Close holds it
	// exclusively to set draining, so running.Wait never races an Add.
	gate sync.RWMutex
	// running counts admitted requests whose job has not finished.
	running sync.WaitGroup

	closeMu   sync.Mutex
	closeDone chan struct{}
}

// New builds a Server from cfg: one private Lab per tenant over one
// shared solve tier, and a fresh metrics registry.
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
	mux.HandleFunc("POST /v1/solve", s.post("solve", prepareSolve))
	mux.HandleFunc("POST /v1/reduce", s.post("reduce", prepareReduce))
	mux.HandleFunc("POST /v1/experiments", s.post("experiments", prepareExperiments))
	mux.HandleFunc("GET /v1/experiments/last", s.handleLastEnvelope)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// Ops surface: the standard obs handler, with service gauges
	// refreshed at scrape time so in-flight counts and the tenant Labs'
	// queue depths are live values, not stale increments.
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
// registry: global and per-tenant in-flight counts, each tenant Lab's
// experiment-scheduler queue depth, and shared-tier occupancy.
func (s *Server) refreshGauges() {
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

// writeRequestError answers a request refused after admission, before
// its job ran: 413 for a body past maxBody or a request over the memory
// budget, 408 for a body still unfinished at its read deadline, 400 for
// anything else malformed.
func writeRequestError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "body: over the %d-byte limit", tooBig.Limit)
	case errors.Is(err, errTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// decodeBody decodes the JSON request body from r into v (strictly —
// unknown fields are an error, catching typos like "dedaline_ms" before
// they silently change semantics).
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}

// decodeSolve reads a POST /v1/solve body into a pooled buffer and
// decodes it: scanSolve first, and the strict decode plus GraphSpec.graph
// for every body the scanner declines. The returned request carries the
// options only; its Graph is left empty.
func decodeSolve(w http.ResponseWriter, r *http.Request) (SolveRequest, *congestlb.Graph, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		return SolveRequest{}, nil, fmt.Errorf("body: %w", err)
	}
	if req, g, ok := scanSolve(buf.Bytes(), memBudget); ok {
		return req, g, nil
	}
	var req SolveRequest
	if err := decodeBody(bytes.NewReader(buf.Bytes()), &req); err != nil {
		return req, nil, err
	}
	g, err := req.Graph.graph(memBudget)
	req.Graph = GraphSpec{}
	return req, g, err
}

// effectiveDeadline resolves the job deadline from the request and the
// tenant quota: the quota caps what the request asks for and supplies
// the budget when the request is silent. The request's milliseconds are
// compared with the cap before they are converted, so no request value
// wraps to a negative Duration.
func effectiveDeadline(req jobOptions, q Quota) time.Duration {
	max := q.maxDeadline()
	if req.DeadlineMS <= 0 || req.DeadlineMS > max.Milliseconds() {
		return max
	}
	return time.Duration(req.DeadlineMS) * time.Millisecond
}

// jobFunc runs one admitted job. It returns the job's result, its error
// (with a nil result on failure) and whether the job's context cut it
// short.
type jobFunc func(ctx context.Context, job *Job) (any, error, bool)

// post serves a job endpoint in the order every POST shares:
// authenticate, admit, then prepare reads and validates the body into
// the job's options and function, and the job runs. A prepare error
// gives the admission slots back before it is answered. One tenant's
// saturation never blocks another tenant's requests.
func (s *Server) post(kind string, prepare func(http.ResponseWriter, *http.Request, *Tenant) (jobOptions, jobFunc, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.tenantFor(w, r)
		if t == nil {
			return
		}
		code, why, release := s.admit(t)
		if code != 0 {
			s.rejectBusy(w, code, why)
			return
		}
		// A stalled upload holds its slots, and so Close, no longer than
		// the tenant's deadline cap. Only a writer with no connection
		// under it, whose body cannot stall, fails with ErrNotSupported.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Now().Add(t.quota.maxDeadline()))
		opts, fn, err := prepare(w, r, t)
		_ = rc.SetReadDeadline(time.Time{})
		if err != nil {
			release()
			writeRequestError(w, err)
			return
		}
		s.run(w, t, kind, opts, release, fn)
	}
}

// admit runs admission for a request of t, in order: draining → 503,
// the tenant's max_concurrent_jobs → 429, the daemon's max_inflight →
// 429. It returns the refusal's status and reason, or 0 and the release
// func that gives the request's slots in both bounds back, to be called
// exactly once. A 429 books the tenant's rejected counter. admit holds
// the gate only for the checks and running.Add, never while a response
// is written.
func (s *Server) admit(t *Tenant) (code int, why string, release func()) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.draining.Load() {
		return http.StatusServiceUnavailable, "server is draining", nil
	}
	t.requests.Inc()
	if n := t.inflight.Add(1); n > int64(t.quota.maxConcurrent()) {
		t.inflight.Add(-1)
		t.rejected.Inc()
		return http.StatusTooManyRequests, fmt.Sprintf("tenant %s at max_concurrent_jobs (%d)", t.Name, t.quota.maxConcurrent()), nil
	}
	if n := s.inflight.Add(1); n > int64(s.cfg.maxInflight()) {
		s.inflight.Add(-1)
		t.inflight.Add(-1)
		t.rejected.Inc()
		return http.StatusTooManyRequests, fmt.Sprintf("server at max_inflight (%d)", s.cfg.maxInflight()), nil
	}
	s.running.Add(1)
	return 0, "", func() {
		t.inflight.Add(-1)
		s.inflight.Add(-1)
		s.running.Done()
	}
}

// run executes an admitted job and answers its request. A sync request
// runs the job on the handler's goroutine and answers with the finished
// job's view; an async one answers 202 with the running job's view and
// runs the job on a goroutine of its own. release gives the admission
// slots back once the job has finished.
func (s *Server) run(w http.ResponseWriter, t *Tenant, kind string, opts jobOptions, release func(), fn jobFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), effectiveDeadline(opts, t.quota))
	job := newJob(fmt.Sprintf("%s-%d", t.Name, t.seq.Add(1)), t.Name, kind, cancel)
	s.jobs.add(job)
	exec := func() {
		defer func() {
			cancel()
			s.jobs.retire(job)
			release()
		}()
		defer func() {
			// Fault containment, service edition: a panicking job fails
			// alone; its goroutine, the tenant and the daemon live on.
			if rec := recover(); rec != nil {
				job.finish(nil, fmt.Sprintf("panic: %v", rec), false)
			}
		}()
		res, err, cancelled := fn(ctx, job)
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
	}

	if opts.Async {
		v := job.View()
		go exec()
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	exec()
	v := job.View()
	code := http.StatusOK
	if v.Status == JobFailed {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, v)
}

// prepareSolve decodes a POST /v1/solve body into its job.
func prepareSolve(w http.ResponseWriter, r *http.Request, t *Tenant) (jobOptions, jobFunc, error) {
	req, g, err := decodeSolve(w, r)
	if err != nil {
		return jobOptions{}, nil, err
	}
	if req.MaxSteps < 0 {
		return jobOptions{}, nil, errors.New("max_steps must be non-negative")
	}
	return req.jobOptions, func(ctx context.Context, job *Job) (any, error, bool) {
		return t.runSolve(ctx, g, req, job)
	}, nil
}

// prepareReduce decodes and validates a POST /v1/reduce body into its
// job; familyFrom sizes the family against memBudget before building it.
func prepareReduce(w http.ResponseWriter, r *http.Request, t *Tenant) (jobOptions, jobFunc, error) {
	var req ReduceRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxBody), &req); err != nil {
		return jobOptions{}, nil, err
	}
	fam, err := familyFrom(req.Family, req.Params, memBudget)
	if err != nil {
		return jobOptions{}, nil, err
	}
	in, err := parseInputs(fam, req.Inputs)
	if err != nil {
		return jobOptions{}, nil, err
	}
	if err := req.Config.validate(); err != nil {
		return jobOptions{}, nil, err
	}
	return req.jobOptions, func(ctx context.Context, job *Job) (any, error, bool) {
		return t.runReduce(ctx, fam, in, req, job)
	}, nil
}

// prepareExperiments decodes a POST /v1/experiments body into its job.
func prepareExperiments(w http.ResponseWriter, r *http.Request, t *Tenant) (jobOptions, jobFunc, error) {
	var req ExperimentsRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxBody), &req); err != nil {
		return jobOptions{}, nil, err
	}
	return req.jobOptions, func(ctx context.Context, job *Job) (any, error, bool) {
		return t.runExperiments(ctx, req, job)
	}, nil
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

// Close drains the service: new work is refused (503), the job of every
// admitted request finishes (a request still reading its body either
// runs its job or is refused), then every tenant Lab is closed. The
// first Close owns the teardown and returns its result; every later or
// concurrent Close blocks until that teardown finishes, then returns
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

	s.gate.Lock()
	s.draining.Store(true)
	s.gate.Unlock()
	s.running.Wait()
	var firstErr error
	for _, name := range s.order {
		if err := s.byName[name].Lab.Close(); err != nil && !errors.Is(err, congestlb.ErrClosed) && firstErr == nil {
			firstErr = err
		}
	}
	close(done)
	return firstErr
}
