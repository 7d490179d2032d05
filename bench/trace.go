package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a call the benchmark made into a layer
// of the system, or a whole operation. Spans of one operation share a
// trace id; parent links a span to the span that caused it (0 for the
// root). Times are nanoseconds since the tracer started.
type span struct {
	Trace  uint64             `json:"trace"`
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) durNS() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil instead of branching.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ns converts a wall-clock instant to the tracer's timebase.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add stores a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record stores a finished span without attributes; trace 0 starts a new
// trace with the span as its root.
func (t *tracer) record(trace, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	if trace == 0 {
		trace = id
	}
	t.add(span{Trace: trace, ID: id, Parent: parent, Name: name, Start: t.ns(start), End: t.ns(end)})
}

// active is an open span. Children are opened from it; end records it.
// A nil *active (from a nil tracer) ignores every call.
type active struct {
	t      *tracer
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]float64
}

// root opens the first span of a new trace.
func (t *tracer) root(name string) *active {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &active{t: t, trace: id, id: id, name: name, start: time.Now()}
}

// child opens a span caused by a.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return &active{t: a.t, trace: a.trace, id: a.t.ids.Add(1), parent: a.id, name: name, start: time.Now()}
}

// set attaches a numeric attribute.
func (a *active) set(key string, v float64) {
	if a == nil {
		return
	}
	if a.attrs == nil {
		a.attrs = make(map[string]float64, 4)
	}
	a.attrs[key] = v
}

// end records the span as finishing now.
func (a *active) end() { a.endAt(time.Now()) }

// endAt records the span as finishing at the given instant.
func (a *active) endAt(at time.Time) {
	if a == nil {
		return
	}
	a.t.add(span{Trace: a.trace, ID: a.id, Parent: a.parent, Name: a.name,
		Start: a.t.ns(a.start), End: a.t.ns(at), Attrs: a.attrs})
}

// inner records a finished child of a whose interval the server
// reported rather than the benchmark observed: it ends at end and lasts
// dur, clipped to start no earlier than a.
func (a *active) inner(name string, end time.Time, dur time.Duration) {
	if a == nil {
		return
	}
	start := end.Add(-dur)
	if start.Before(a.start) {
		start = a.start
	}
	a.t.record(a.trace, a.id, name, start, end)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("encode span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans parses a JSONL span file written by tracer.write.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: span %d: %w", path, len(out)+1, err)
		}
		if s.ID == 0 || s.Trace == 0 || s.Name == "" || s.End < s.Start {
			return nil, fmt.Errorf("%s: span %d is malformed: %+v", path, len(out)+1, s)
		}
		out = append(out, s)
	}
	return out, nil
}
