// Package experiments regenerates every figure and result of Efron,
// Grossman and Khoury (PODC 2020) as reproducible, self-verifying
// experiment runs emitting markdown reports. DESIGN.md carries the index:
// one experiment per paper object (Figures 1-6, Theorems 1-5 as consumed,
// Lemmas 1-3, Remark 1, the Section 1 limitation, and the cut-size
// measurement), each with a bench target in bench_test.go and a section
// in the committed suite report, testdata/suite_report.golden.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one reproducible unit: it runs, verifies its own
// assertions (returning an error on any mismatch), and writes a markdown
// section with the regenerated figures/tables.
type Experiment struct {
	// ID is the stable identifier used by cmd/experiments and the bench
	// harness (e.g. "figure1", "theorem2").
	ID string
	// Title is the human heading.
	Title string
	// PaperRef names the object in the paper this regenerates.
	PaperRef string
	// Run executes the experiment, writing its report to the context.
	Run func(w *Ctx) error
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

// register is called from the per-experiment files' declarations.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate ID " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Select resolves a list of experiment IDs, preserving the given order.
// Unknown IDs are reported in one error. An empty list selects everything
// (in ID order), so callers can pass a user's -id flag through directly.
func Select(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return All(), nil
	}
	out := make([]Experiment, 0, len(ids))
	var unknown []string
	for _, id := range ids {
		e, ok := registry[id]
		if !ok {
			unknown = append(unknown, id)
			continue
		}
		out = append(out, e)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment(s) %s (use -list)", strings.Join(unknown, ", "))
	}
	return out, nil
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// RunAll executes every experiment in ID order, writing a combined report.
// It keeps going after failures and returns a joined error.
func RunAll(w io.Writer) error {
	var failures []string
	for _, e := range All() {
		fmt.Fprintf(w, "## %s — %s\n\n*Reproduces: %s*\n\n", e.ID, e.Title, e.PaperRef)
		if err := e.Run(NewCtx(w, nil)); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", e.ID, err))
			fmt.Fprintf(w, "**FAILED**: %v\n\n", err)
			continue
		}
		fmt.Fprintf(w, "\n")
	}
	if len(failures) > 0 {
		return fmt.Errorf("experiments failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// table accumulates rows for a markdown table.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table {
	return &table{headers: headers}
}

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) write(w io.Writer) {
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.headers, " | "))
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "|%s|\n", strings.Join(sep, "|"))
	for _, row := range t.rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
}

// check records a named assertion; any failure fails the experiment.
type check struct {
	failures []string
}

func (c *check) assert(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *check) err() error {
	if len(c.failures) == 0 {
		return nil
	}
	return fmt.Errorf("%d assertion(s) failed:\n  %s", len(c.failures), strings.Join(c.failures, "\n  "))
}
