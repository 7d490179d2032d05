package obs

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety is the nil-registry fast-path contract: every handle
// and method chain must be a no-op, never a panic, when observability
// is disabled.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-1)
	r.Histogram("h").Observe(42)
	if got := r.Snapshot(); got.Counters != nil || got.Gauges != nil || got.Histograms != nil {
		t.Fatalf("nil registry snapshot not zero: %+v", got)
	}
	sp := r.StartSpan("s", 0)
	sp.End()
	_, sp2 := Begin(context.Background(), "s2")
	sp2.End()
	if FromContext(NewContext(context.Background(), nil)) != nil {
		t.Fatal("nil registry leaked into context")
	}
	if Handler(nil) != nil {
		t.Fatal("Handler(nil) should be nil")
	}
	if r.IncumbentObserver() != nil {
		t.Fatal("nil registry produced an observer")
	}
	var m *Monotonic
	m.OnIncumbent(ProgressEvent{Weight: 1})
	m.Finish(1, 0)
	if r.SpanStatsSince(0) != nil || r.SpanMark() != 0 {
		t.Fatal("nil registry span accessors not zero")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Fatal("counter handles not interned")
	}
	r.Counter("c").Add(5)
	r.Gauge("g").Set(9)
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 1000, -5} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if s.Counter("c") != 5 || s.Gauge("g") != 9 {
		t.Fatalf("snapshot values wrong: %+v", s)
	}
	hs := s.Histograms["h"]
	if hs.Count != 6 || hs.Sum != 1001 {
		t.Fatalf("histogram count/sum wrong: %+v", hs)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != hs.Count {
		t.Fatalf("bucket counts %d do not sum to total %d", total, hs.Count)
	}
	// 0 and -5 land in the ≤0 bucket; 1 in le=1; 2,3 in le=3; 1000 in le=1023.
	want := map[int64]int64{0: 2, 1: 1, 3: 2, 1023: 1}
	for _, b := range hs.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count %d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(10)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(100)
	before := r.Snapshot()
	r.Counter("c").Add(4)
	r.Gauge("g").Set(2)
	r.Histogram("h").Observe(100)
	r.Histogram("h").Observe(3)
	d := r.Snapshot().DeltaSince(before)
	if d.Counter("c") != 4 {
		t.Fatalf("counter delta %d, want 4", d.Counter("c"))
	}
	if d.Gauge("g") != 2 {
		t.Fatalf("gauge in delta must be the end value, got %d", d.Gauge("g"))
	}
	dh := d.Histograms["h"]
	if dh.Count != 2 || dh.Sum != 103 {
		t.Fatalf("histogram delta %+v", dh)
	}
}

func TestSpanTree(t *testing.T) {
	r := NewRegistry()
	ctx := NewContext(context.Background(), r)
	ctx, root := Begin(ctx, "run")
	ctx2, child := Begin(ctx, "experiment")
	_, leaf := Begin(ctx2, "solve")
	leaf.End()
	child.End()
	root.End()
	recs := r.Spans()
	if len(recs) != 3 {
		t.Fatalf("want 3 spans, got %d", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	if byName["experiment"].Parent != byName["run"].ID {
		t.Fatal("experiment span not parented to run")
	}
	if byName["solve"].Parent != byName["experiment"].ID {
		t.Fatal("solve span not parented to experiment")
	}
	stats := r.SpanStatsSince(0)
	if len(stats) != 3 {
		t.Fatalf("want 3 span stats, got %+v", stats)
	}
	mark := r.SpanMark()
	if got := r.SpanStatsSince(mark); got != nil {
		t.Fatalf("stats past watermark should be nil, got %+v", got)
	}
}

func TestSpanLogBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSpanRecords+10; i++ {
		r.StartSpan("s", 0).End()
	}
	if n := len(r.Spans()); n != maxSpanRecords {
		t.Fatalf("span log holds %d records, cap is %d", n, maxSpanRecords)
	}
	if d := r.SpansDropped(); d != 10 {
		t.Fatalf("dropped %d, want 10", d)
	}
}

func TestMonotonic(t *testing.T) {
	var got []ProgressEvent
	m := NewMonotonic(ObserverFunc(func(ev ProgressEvent) { got = append(got, ev) }))
	for _, w := range []int64{5, 3, 5, 8, 8, 12} {
		m.OnIncumbent(ProgressEvent{Weight: w})
	}
	m.Finish(12, 99)
	weights := make([]int64, len(got))
	for i, ev := range got {
		weights[i] = ev.Weight
	}
	want := []int64{5, 8, 12, 12}
	if len(weights) != len(want) {
		t.Fatalf("got %v, want %v", weights, want)
	}
	for i := range want {
		if weights[i] != want[i] {
			t.Fatalf("got %v, want %v", weights, want)
		}
	}
	if !got[len(got)-1].Final || got[len(got)-1].Steps != 99 {
		t.Fatalf("last event not the Final marker: %+v", got[len(got)-1])
	}
	// Every non-final weight is strictly increasing.
	for i := 1; i < len(got)-1; i++ {
		if got[i].Weight <= got[i-1].Weight {
			t.Fatalf("weights not strictly increasing: %v", weights)
		}
	}
}

func TestTee(t *testing.T) {
	var a, b int
	oa := ObserverFunc(func(ProgressEvent) { a++ })
	ob := ObserverFunc(func(ProgressEvent) { b++ })
	if Tee(nil, nil) != nil {
		t.Fatal("Tee(nil, nil) should be nil")
	}
	Tee(oa, nil).OnIncumbent(ProgressEvent{})
	Tee(nil, ob).OnIncumbent(ProgressEvent{})
	Tee(oa, ob).OnIncumbent(ProgressEvent{})
	if a != 2 || b != 2 {
		t.Fatalf("tee fan-out wrong: a=%d b=%d", a, b)
	}
}

func TestLabeled(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pairs []string
		want  string
	}{
		{MServeRequests, []string{"tenant", "alice"}, `serve_requests{tenant="alice"}`},
		{"g", []string{"a", "1", "b", "2"}, `g{a="1",b="2"}`},
		{"g", nil, "g"},
		// A label value is escaped as the text format requires, so a
		// tenant name cannot break the /metrics page.
		{MServeRequests, []string{"tenant", "a\"b\\c\nd"}, `serve_requests{tenant="a\"b\\c\nd"}`},
	} {
		if got := Labeled(tc.name, tc.pairs...); got != tc.want {
			t.Errorf("Labeled(%q, %q) = %q, want %q", tc.name, tc.pairs, got, tc.want)
		}
	}
}

func TestPrometheusLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter(Labeled(MServeRequests, "tenant", "alice")).Add(4)
	r.Counter(Labeled(MServeRequests, "tenant", "bob")).Add(2)
	r.Gauge(Labeled(MServeQueueDepth, "tenant", "alice")).Set(1)
	r.Gauge(MServeQueueDepth).Set(3)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	prom := body.String()
	// The counter suffix splices before the label block, and the family
	// gets exactly one TYPE line shared by its labeled variants.
	for _, want := range []string{
		"congestlb_serve_requests_total{tenant=\"alice\"} 4",
		"congestlb_serve_requests_total{tenant=\"bob\"} 2",
		"congestlb_serve_queue_depth{tenant=\"alice\"} 1",
		"congestlb_serve_queue_depth 3",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, prom)
		}
	}
	if n := strings.Count(prom, "# TYPE congestlb_serve_requests_total counter"); n != 1 {
		t.Fatalf("TYPE line count for labeled counter family = %d, want 1:\n%s", n, prom)
	}
	if n := strings.Count(prom, "# TYPE congestlb_serve_queue_depth gauge"); n != 1 {
		t.Fatalf("TYPE line count for labeled gauge family = %d, want 1:\n%s", n, prom)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter(MSolveCacheHits).Add(3)
	r.Gauge(MSchedQueueDepth).Set(2)
	r.Histogram(MSolveLatencyNS).Observe(1500)
	r.StartSpan("run", 0).End()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return sb.String()
	}

	prom := get("/metrics")
	for _, want := range []string{
		"congestlb_solve_cache_hits_total 3",
		"congestlb_sched_queue_depth 2",
		"congestlb_solve_latency_ns_bucket{le=\"+Inf\"} 1",
		"congestlb_solve_latency_ns_sum 1500",
		"congestlb_solve_latency_ns_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, prom)
		}
	}
	js := get("/metrics.json")
	if !strings.Contains(js, "\"solve_cache_hits\": 3") {
		t.Fatalf("/metrics.json missing counter:\n%s", js)
	}
	spans := get("/spans.json")
	if !strings.Contains(spans, "\"name\": \"run\"") {
		t.Fatalf("/spans.json missing span:\n%s", spans)
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), "obs") {
		t.Log("pprof cmdline served (content varies)") // reachable is enough
	}
}

// TestConcurrentRegistry exercises interning and recording under
// concurrency (run with -race in CI).
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(int64(j))
				r.Gauge("g").Add(1)
				r.StartSpan("s", 0).End()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("c") != 8000 || s.Gauge("g") != 8000 {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.Histograms["h"].Count != 8000 {
		t.Fatalf("histogram lost observations: %+v", s.Histograms["h"])
	}
}
