package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// SpanID identifies one span within its registry. Zero means "no
// span" (a root, or a no-op span from a registry-less context).
type SpanID int64

// SpanRecord is one completed span. StartNS is relative to the
// registry's creation instant (monotonic), so a record set from one run
// sorts and nests without wall-clock skew; DurNS is the span's length.
// Parent is 0 for roots, otherwise the enclosing span's ID — following
// Parent pointers reconstructs the run → experiment → job/simulate/
// solve timing tree.
type SpanRecord struct {
	ID      SpanID `json:"id"`
	Parent  SpanID `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// maxSpanRecords bounds the span log. Past the cap new records are
// counted as dropped rather than evicting old ones — eviction would
// orphan children and invalidate watermarks handed to SpanStatsSince.
const maxSpanRecords = 8192

type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time // set lazily on first record
	recs    []SpanRecord
	dropped int64
}

// Span is an open span. The zero Span (from a nil registry or a
// registry-less context) is a valid no-op: End does nothing.
type Span struct {
	r     *Registry
	id    SpanID
	name  string
	par   SpanID
	start time.Time
}

// ID returns the span's ID (0 for a no-op span).
func (s Span) ID() SpanID { return s.id }

// StartSpan opens a span under the given parent (0 for a root). Nil
// registries return a no-op span.
func (r *Registry) StartSpan(name string, parent SpanID) Span {
	if r == nil {
		return Span{}
	}
	return Span{
		r:     r,
		id:    SpanID(r.nextSpan.Add(1)),
		name:  name,
		par:   parent,
		start: time.Now(),
	}
}

// End closes the span and appends its record to the registry's bounded
// span log. Safe (and a no-op) on the zero Span.
func (s Span) End() {
	if s.r == nil {
		return
	}
	end := time.Now()
	l := &s.r.spans
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch.IsZero() {
		l.epoch = s.start
	}
	if len(l.recs) >= maxSpanRecords {
		l.dropped++
		return
	}
	l.recs = append(l.recs, SpanRecord{
		ID:      s.id,
		Parent:  s.par,
		Name:    s.name,
		StartNS: s.start.Sub(l.epoch).Nanoseconds(),
		DurNS:   end.Sub(s.start).Nanoseconds(),
	})
}

// Spans returns a copy of the recorded spans, in completion order.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.spans.mu.Lock()
	defer r.spans.mu.Unlock()
	return append([]SpanRecord(nil), r.spans.recs...)
}

// SpansDropped reports how many spans were discarded after the log
// filled up.
func (r *Registry) SpansDropped() int64 {
	if r == nil {
		return 0
	}
	r.spans.mu.Lock()
	defer r.spans.mu.Unlock()
	return r.spans.dropped
}

// SpanMark returns a watermark: the current record count. Pass it to
// SpanStatsSince to summarise only the spans completed after the mark
// (the runner uses this to scope the envelope's span block to one run).
func (r *Registry) SpanMark() int {
	if r == nil {
		return 0
	}
	r.spans.mu.Lock()
	defer r.spans.mu.Unlock()
	return len(r.spans.recs)
}

// SpanStat aggregates completed spans sharing a name.
type SpanStat struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// SpanStatsSince aggregates spans recorded after the given watermark by
// name, sorted by name for deterministic output. A nil registry (or an
// up-to-date mark) yields nil.
func (r *Registry) SpanStatsSince(mark int) []SpanStat {
	if r == nil {
		return nil
	}
	r.spans.mu.Lock()
	recs := r.spans.recs
	if mark < 0 {
		mark = 0
	}
	if mark > len(recs) {
		mark = len(recs)
	}
	byName := make(map[string]*SpanStat)
	for _, rec := range recs[mark:] {
		st := byName[rec.Name]
		if st == nil {
			st = &SpanStat{Name: rec.Name}
			byName[rec.Name] = st
		}
		st.Count++
		st.TotalNS += rec.DurNS
		if rec.DurNS > st.MaxNS {
			st.MaxNS = rec.DurNS
		}
	}
	r.spans.mu.Unlock()
	out := make([]SpanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if len(out) == 0 {
		return nil
	}
	return out
}

// ctxKey carries the registry plus the current span through a context.
type ctxKey struct{}

type ctxVal struct {
	reg  *Registry
	span SpanID
}

// NewContext binds a registry to the context so downstream layers
// (core.Simulate, the solve cache, Ctx.Go job wrappers) can open spans
// and resolve engine metrics without threading the registry through
// every signature. A nil registry returns ctx unchanged.
func NewContext(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{reg: r})
}

// FromContext returns the registry bound by NewContext, or nil.
func FromContext(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	return v.reg
}

// Begin opens a span named name as a child of the context's current
// span and returns a derived context carrying the new span as parent
// for further Begin calls. Without a registry in ctx it returns ctx
// unchanged and a no-op Span — a context Value lookup and nothing else,
// which is the whole disabled-path cost.
func Begin(ctx context.Context, name string) (context.Context, Span) {
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	if v.reg == nil {
		return ctx, Span{}
	}
	sp := v.reg.StartSpan(name, v.span)
	return context.WithValue(ctx, ctxKey{}, ctxVal{reg: v.reg, span: sp.id}), sp
}
