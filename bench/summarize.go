package main

import (
	"fmt"
	"io"
	"sort"
)

// selfRow aggregates the spans sharing a root name and a span name.
type selfRow struct {
	root, name string
	count      int
	totalMS    float64
	selfMS     float64
	selfP50MS  float64
}

// layerMetric is one per-layer figure derived from a trace.
type layerMetric struct {
	name, unit string
	value      float64
}

type summary struct {
	self    []selfRow
	metrics []layerMetric
}

// group names the spans called name in the traces whose root is called
// root.
type group struct{ root, name string }

// index is a parsed trace: children by parent span and spans by group.
type index struct {
	spans    []span
	children map[uint64][]int
	groups   map[group][]int
}

func newIndex(spans []span) index {
	rootOf := map[uint64]string{} // trace id -> name of its root span
	for _, s := range spans {
		if s.Parent == 0 {
			rootOf[s.Trace] = s.Name
		}
	}
	ix := index{spans: spans, children: map[uint64][]int{}, groups: map[group][]int{}}
	for i, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
		g := group{rootOf[s.Trace], s.Name}
		ix.groups[g] = append(ix.groups[g], i)
	}
	return ix
}

// selfNS is s's duration minus the part of it its children cover.
func (ix index) selfNS(s span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range ix.children[s.ID] {
		a, b := max(ix.spans[c].Start, s.Start), min(ix.spans[c].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	end := s.Start
	for _, v := range ivs {
		end = max(end, v.a)
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.durNS() - covered
}

// match returns the spans named name in traces rooted at root.
func (ix index) match(root, name string) []span {
	var out []span
	for _, i := range ix.groups[group{root, name}] {
		out = append(out, ix.spans[i])
	}
	return out
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// summarize computes self times per (root, name) and the per-layer
// metrics of a traced run.
func summarize(spans []span) (summary, error) {
	ix := newIndex(spans)
	var sum summary
	for g, members := range ix.groups {
		row := selfRow{root: g.root, name: g.name, count: len(members)}
		selfs := make([]float64, 0, len(members))
		for _, i := range members {
			s := spans[i]
			self := ix.selfNS(s)
			if self < 0 {
				return sum, fmt.Errorf("span %d (%s) has negative self time %d ns", s.ID, s.Name, self)
			}
			row.totalMS += msOf(s.durNS())
			row.selfMS += msOf(self)
			selfs = append(selfs, msOf(self))
		}
		row.selfP50MS = percentile(sortedCopy(selfs), 50)
		sum.self = append(sum.self, row)
	}
	sort.Slice(sum.self, func(i, j int) bool {
		a, b := sum.self[i], sum.self[j]
		if a.root != b.root {
			return a.root < b.root
		}
		return a.selfMS > b.selfMS
	})

	m := metricBuilder{ix: ix}
	m.layerMetrics()
	if m.err != nil {
		return sum, m.err
	}
	sum.metrics = m.out
	return sum, nil
}

// metricBuilder derives the per-layer metrics; the first missing input
// is kept in err.
type metricBuilder struct {
	ix  index
	out []layerMetric
	err error
}

func (m *metricBuilder) add(name, unit string, v float64) {
	m.out = append(m.out, layerMetric{name: name, unit: unit, value: v})
}

func (m *metricBuilder) need(root, name string) []span {
	ss := m.ix.match(root, name)
	if len(ss) == 0 && m.err == nil {
		m.err = fmt.Errorf("trace has no %s spans under %s", name, root)
	}
	return ss
}

// p50 is the median duration of the matching spans, in ms.
func (m *metricBuilder) p50(root, name string) float64 {
	var ds []float64
	for _, s := range m.need(root, name) {
		ds = append(ds, msOf(s.durNS()))
	}
	return percentile(sortedCopy(ds), 50)
}

// selfP50 is the median self time of the matching spans, in ms.
func (m *metricBuilder) selfP50(root, name string) float64 {
	var ds []float64
	for _, s := range m.need(root, name) {
		ds = append(ds, msOf(m.ix.selfNS(s)))
	}
	return percentile(sortedCopy(ds), 50)
}

// sum adds attribute key over the matching spans that carry it.
func (m *metricBuilder) sum(root, name, key string) float64 {
	var t float64
	for _, s := range m.need(root, name) {
		t += s.Attrs[key]
	}
	return t
}

// totalMS adds the durations of the matching spans.
func (m *metricBuilder) totalMS(root, name string) float64 {
	var t float64
	for _, s := range m.need(root, name) {
		t += msOf(s.durNS())
	}
	return t
}

// medianAttr is the median of f over the matching spans.
func (m *metricBuilder) medianAttr(root, name string, f func(span) float64) float64 {
	var vs []float64
	for _, s := range m.need(root, name) {
		vs = append(vs, f(s))
	}
	return median(vs)
}

// roots returns the root spans named root.
func (m *metricBuilder) roots(root string) []span {
	return m.need(root, root)
}

// ratio divides, reporting a zero denominator as a missing input.
func (m *metricBuilder) ratio(what string, a, b float64) float64 {
	if b == 0 {
		if m.err == nil {
			m.err = fmt.Errorf("%s: zero denominator", what)
		}
		return 0
	}
	return a / b
}

// layerMetrics is the per-layer metric set, in BENCHMARK.json order.
func (m *metricBuilder) layerMetrics() {
	// serve: solve-mix requests traced after a full warm-up.
	m.add("serve.overhead_ms.p50", "ms", m.selfP50("probe.serve", "http.post"))
	m.add("serve.job_ms.p50", "ms", m.p50("probe.serve", "serve.job"))
	reqs := m.roots("probe.serve")
	count := func(flag string) (n float64) {
		for _, s := range reqs {
			n += s.Attrs[flag]
		}
		return n
	}
	m.add("serve.rejected", "count", count("rejected"))

	// cache
	total := float64(len(reqs))
	m.add("cache.private_hit_ratio", "ratio", m.ratio("requests", count("hit_private"), total))
	m.add("cache.shared_hit_ratio", "ratio", m.ratio("requests", count("hit_shared"), total))
	m.add("cache.fresh_ratio", "ratio", m.ratio("requests", count("fresh"), total))
	m.add("cache.keyof_us.p50", "us", 1000*m.p50("probe.cache", "cache.KeyOf"))
	m.add("cache.private_hit_us.p50", "us", 1000*m.p50("probe.cache", "cache.Exact.private"))
	m.add("cache.shared_hit_us.p50", "us", 1000*m.p50("probe.cache", "cache.Exact.shared"))
	attr := func(key string) func(span) float64 { return func(s span) float64 { return s.Attrs[key] } }
	m.add("cache.suite_hits", "count", m.medianAttr("probe.suite", "lab.RunExperiments", attr("cache_hits")))
	m.add("cache.suite_misses", "count", m.medianAttr("probe.suite", "lab.RunExperiments", attr("cache_misses")))

	// mis
	m.add("mis.solve_ms.p50.w1", "ms", m.p50("probe.mis", "mis.ExactMaxISGraph.w1"))
	m.add("mis.solve_ms.p50.wN", "ms", m.p50("probe.mis", "mis.ExactMaxISGraph.wN"))
	w1 := m.sum("probe.mis", "mis.ExactMaxISGraph.w1", "steps")
	wN := m.sum("probe.mis", "mis.ExactMaxISGraph.wN", "steps")
	m.add("mis.steps.w1", "count", w1)
	m.add("mis.steps.wN", "count", wN)
	m.add("mis.inflation", "ratio", m.ratio("mis.steps.w1", wN, w1))
	m.add("mis.steps_per_ms.w1", "1/ms", m.ratio("mis w1 time", w1, m.totalMS("probe.mis", "mis.ExactMaxISGraph.w1")))
	var freshSteps float64
	for _, s := range reqs {
		if s.Attrs["fresh"] == 1 {
			freshSteps += s.Attrs["steps"]
		}
	}
	m.add("mis.fresh_steps", "count", m.ratio("fresh requests", freshSteps, count("fresh")))

	// lbgraph
	m.add("lbgraph.build_ms.p50.linear", "ms", m.p50("probe.lbgraph", "lbgraph.BuildInstance.linear"))
	m.add("lbgraph.build_ms.p50.quadratic", "ms", m.p50("probe.lbgraph", "lbgraph.BuildInstance.quadratic"))
	m.add("lbgraph.suite_hit_ratio", "ratio", m.medianAttr("probe.suite", "lab.RunExperiments", func(s span) float64 {
		return m.ratio("suite lbgraph lookups", s.Attrs["lbgraph_hits"], s.Attrs["lbgraph_hits"]+s.Attrs["lbgraph_misses"])
	}))

	// congest / congestalg
	pipelined := m.p50("probe.engine", "congest.RunCtx.pipelined")
	m.add("congest.seq_ms.p50", "ms", m.p50("probe.engine", "congest.RunCtx.seq"))
	m.add("congest.pipelined_ms.p50", "ms", pipelined)
	m.add("congest.batch8_ms.p50", "ms", m.p50("probe.batch", "congest.RunBatch"))
	m.add("congest.loop8_ms.p50", "ms", m.p50("probe.batch", "congest.loop8"))
	m.add("congest.rounds", "count", m.sum("probe.engine", "congest.RunCtx.seq", "rounds"))
	m.add("congest.messages", "count", m.sum("probe.engine", "congest.RunCtx.seq", "messages"))

	// core / cc
	simulate := m.p50("probe.engine", "core.Simulate")
	m.add("core.hook_ms.p50", "ms", simulate-pipelined)
	m.add("core.hook_share", "ratio", m.ratio("core.Simulate p50", simulate-pipelined, simulate))
	m.add("cc.blackboard_bits", "count", m.sum("probe.engine", "core.Simulate", "blackboard_bits"))
	m.add("cc.blackboard_writes", "count", m.sum("probe.engine", "core.Simulate", "blackboard_writes"))

	// runner / experiments
	m.add("runner.parallel_efficiency", "ratio", m.medianAttr("probe.suite", "lab.RunExperiments", func(s span) float64 {
		return m.ratio("suite wall_ms*jobs", s.Attrs["sequential_ms"], s.Attrs["wall_ms"]*s.Attrs["jobs"])
	}))
	m.add("runner.instance_jobs", "count", m.medianAttr("probe.suite", "lab.RunExperiments", attr("instance_jobs")))
	for _, id := range suiteExps {
		m.add("runner.exp_ms."+id, "ms", m.medianAttr("probe.suite", "lab.RunExperiments", attr("exp_ms."+id)))
	}

	// lab
	m.add("lab.open_close_ms.p50", "ms", m.p50("probe.lab", "lab.open_close"))

	// trace: traced against untraced operations of the workload itself.
	m.add("trace.overhead_ratio", "ratio", m.ratio("untraced p50", m.p50("op", "op"), m.p50("op.untraced", "op.untraced")))
}

// printSelfTimes prints the self-time table of a trace.
func printSelfTimes(out io.Writer, rows []selfRow) {
	fmt.Fprintf(out, "%-16s %-34s %8s %12s %12s %12s\n", "root", "span", "count", "total_ms", "self_ms", "self_p50_ms")
	for _, r := range rows {
		fmt.Fprintf(out, "%-16s %-34s %8d %12.3f %12.3f %12.4f\n", r.root, r.name, r.count, r.totalMS, r.selfMS, r.selfP50MS)
	}
}

// summarizeFile prints the self times and per-layer metrics of a span
// file (the -summarize mode).
func summarizeFile(out io.Writer, path string) error {
	spans, err := readSpans(path)
	if err != nil {
		return err
	}
	sum, err := summarize(spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d spans from %s\n", len(spans), path)
	printSelfTimes(out, sum.self)
	ms := map[string]metric{}
	for _, lm := range sum.metrics {
		ms[lm.name] = metric{Value: lm.value, Unit: lm.unit}
	}
	printMetrics(out, ms)
	return nil
}
