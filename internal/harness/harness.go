// Package harness regenerates every table, figure and numeric claim of the
// paper's evaluation (§VI) plus the reproduction's own ablations. Each
// experiment produces a table with paper-reported values alongside measured
// ones; cmd/omg-bench renders them as text or, with -md, as markdown.
//
// Every key, nonce and model in a run is seeded, so a quick run reproduces
// every cell but the host wall times (Table.Wall). TestAllExperimentsQuick
// masks those and compares each table with testdata/golden/<ID>.txt; after
// a change meant to move a simulated or counted figure, regenerate with
//
//	go test ./internal/harness -run TestAllExperimentsQuick -update
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Table is one rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // what the paper reports
	Headers []string
	Rows    [][]string
	Notes   []string
	// Wall marks the cells and notes that hold host wall time, or figures
	// computed from it: the only ones that vary run to run.
	Wall Wall
}

// Wall locates a table's host-wall-time cells and notes.
type Wall struct {
	Cols  []int // columns of wall time
	Rows  []int // if set, Cols hold wall time in these rows only
	Notes []int // notes computed from wall time
}

// Render writes a human-readable table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "   paper: %s\n", t.Claim)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	sep := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as GitHub-flavored markdown (omg-bench -md).
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "*Paper:* %s\n\n", t.Claim)
	}
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n> %s\n", n)
	}
	sb.WriteString("\n")
	return sb.String()
}

// Ctx carries run options into experiments.
type Ctx struct {
	// Quick shrinks workloads (fewer trials, smaller keys) for CI runs.
	Quick bool
	// Log receives progress lines (nil discards them).
	Log io.Writer
	fix *Fixture
}

// Logf writes a progress line if logging is enabled.
func (c *Ctx) Logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Experiment is a registered, reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx *Ctx) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// Experiments returns all registered experiments in ID order.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idOrder(out[i].ID) < idOrder(out[j].ID) })
	return out
}

// idOrder sorts E1..E10 numerically, then F1, F2.
func idOrder(id string) int {
	var kind, n int
	if len(id) < 2 {
		return 1 << 20
	}
	switch id[0] {
	case 'E':
		kind = 0
	case 'F':
		kind = 1 << 10
	default:
		kind = 1 << 20
	}
	fmt.Sscanf(id[1:], "%d", &n)
	return kind + n
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// NewCtx creates a run context sharing one lazily-built fixture.
func NewCtx(quick bool, log io.Writer) *Ctx {
	return &Ctx{Quick: quick, Log: log, fix: &Fixture{}}
}
