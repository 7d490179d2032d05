package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"congestlb/internal/obs"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle: running → done/failed. A job is running from its
// creation, once its admitted request's body is accepted: nothing queues
// it. A cancelled job still lands in done when it produced a usable
// result (e.g. a deadline-cut solve returns its incumbent with Cancelled
// set) and in failed when it produced none.
const (
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// maxJobEvents bounds the per-job progress log replayed to late SSE
// subscribers; incumbent sequences are strictly increasing, so real
// solves produce far fewer events than this.
const maxJobEvents = 4096

// Job is one admitted request: its lifecycle state, cancel handle,
// result, and the incumbent-progress log/broadcast behind the SSE
// stream. All fields behind mu; done closes when the result is final.
type Job struct {
	ID     string
	Tenant string
	Kind   string // "solve", "reduce" or "experiments"

	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	status    JobStatus
	cancelled bool
	errMsg    string
	result    json.RawMessage
	created   time.Time
	finished  time.Time
	events    []obs.ProgressEvent
	subs      map[chan obs.ProgressEvent]struct{}
}

func newJob(id, tenant, kind string, cancel context.CancelFunc) *Job {
	return &Job{
		ID:      id,
		Tenant:  tenant,
		Kind:    kind,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  JobRunning,
		created: time.Now(),
		subs:    make(map[chan obs.ProgressEvent]struct{}),
	}
}

// JobView is the wire representation of a job.
type JobView struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Kind      string          `json:"kind"`
	Status    JobStatus       `json:"status"`
	Cancelled bool            `json:"cancelled,omitempty"`
	Error     string          `json:"error,omitempty"`
	WallMS    float64         `json:"wall_ms,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job for the wire.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Tenant:    j.Tenant,
		Kind:      j.Kind,
		Status:    j.status,
		Cancelled: j.cancelled,
		Error:     j.errMsg,
		Result:    j.result,
	}
	if !j.finished.IsZero() {
		v.WallMS = float64(j.finished.Sub(j.created).Nanoseconds()) / 1e6
	}
	return v
}

// OnIncumbent records one progress event and fans it out to live SSE
// subscribers. It implements obs.ProgressObserver and runs inline in the
// solver's search loop, so delivery to subscribers is non-blocking: a
// slow consumer misses intermediate events (its stream stays monotone —
// any subsequence of a strictly increasing sequence is) rather than
// stalling the solve.
func (j *Job) OnIncumbent(ev obs.ProgressEvent) {
	j.mu.Lock()
	if len(j.events) < maxJobEvents {
		j.events = append(j.events, ev)
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe registers an SSE consumer: it returns a replay of the events
// so far, a live channel for subsequent ones, and an unsubscribe func.
func (j *Job) subscribe() (replay []obs.ProgressEvent, live chan obs.ProgressEvent, unsub func()) {
	ch := make(chan obs.ProgressEvent, 256)
	j.mu.Lock()
	replay = append([]obs.ProgressEvent(nil), j.events...)
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return replay, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// finish publishes the job's final state and releases waiters. result is
// marshalled JSON (nil on failure); cancelled marks a context-cut job.
func (j *Job) finish(result json.RawMessage, errMsg string, cancelled bool) {
	j.mu.Lock()
	if result != nil {
		j.status = JobDone
	} else {
		j.status = JobFailed
	}
	j.result = result
	j.errMsg = errMsg
	j.cancelled = cancelled
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Cancel fires the job's context and, while the job is still running,
// flags it cancelled; a finished job keeps the result and flag it
// finished with. Safe to call at any time, repeatedly.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.status == JobRunning {
		j.cancelled = true
	}
	j.mu.Unlock()
	j.cancel()
}

// maxFinishedJobs bounds how many finished jobs the table retains for
// later GET /v1/jobs/{id} inspection; the oldest are evicted first.
const maxFinishedJobs = 256

// jobTable indexes every retained job by id.
type jobTable struct {
	mu       sync.Mutex
	byID     map[string]*Job
	finished []string // eviction order
}

func newJobTable() *jobTable {
	return &jobTable{byID: make(map[string]*Job)}
}

func (t *jobTable) add(j *Job) {
	t.mu.Lock()
	t.byID[j.ID] = j
	t.mu.Unlock()
}

func (t *jobTable) get(id string) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// retire moves a finished job into the bounded retention window.
func (t *jobTable) retire(j *Job) {
	t.mu.Lock()
	t.finished = append(t.finished, j.ID)
	for len(t.finished) > maxFinishedJobs {
		delete(t.byID, t.finished[0])
		t.finished = t.finished[1:]
	}
	t.mu.Unlock()
}
