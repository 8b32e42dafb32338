package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/<ID>.txt from this run")

// quickCtx is the package's one quick-mode context, built on first use so
// the tests that need the trained fixture train it once between them. The
// fixture is immutable once built and every experiment derives its own
// seeded devices and sessions from it, so sharing changes no table.
var quickCtx = sync.OnceValue(func() *Ctx { return NewCtx(true, nil) })

// wallToken stands in for every host-wall-time cell and note in a golden
// table. Masking before rendering keeps the columns aligned whatever width
// the wall figures have.
const wallToken = "<wall>"

// masked returns a copy of t whose Wall cells and notes read wallToken.
func masked(t *Table) *Table {
	m := *t
	m.Rows = make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		m.Rows[r] = slices.Clone(row)
		if t.Wall.Rows != nil && !slices.Contains(t.Wall.Rows, r) {
			continue
		}
		for _, c := range t.Wall.Cols {
			m.Rows[r][c] = wallToken
		}
	}
	m.Notes = slices.Clone(t.Notes)
	for _, n := range t.Wall.Notes {
		m.Notes[n] = wallToken
	}
	return &m
}

// TestAllExperimentsQuick executes every registered experiment in quick
// mode against one shared fixture — the integration test of the whole
// reproduction stack — and compares each table, wall cells masked, with its
// golden file. -update rewrites the golden files instead.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments train a model; skipped in -short mode")
	}
	ctx := quickCtx()
	exps := Experiments()
	if len(exps) != 15 { // E1..E12, E14, F1, F2
		t.Fatalf("registered experiments = %d, want 15", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if table.ID != e.ID {
				t.Fatalf("table ID %q != experiment ID %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 || len(table.Headers) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Headers) {
					t.Fatalf("%s: row width %d != header width %d", e.ID, len(row), len(table.Headers))
				}
			}
			if md := table.Markdown(); !strings.HasPrefix(md, "### ") {
				t.Fatalf("%s: bad markdown", e.ID)
			}
			var got bytes.Buffer
			masked(table).Render(&got)
			if !strings.Contains(got.String(), e.ID) {
				t.Fatalf("%s: render missing ID", e.ID)
			}
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from %s (regenerate with -update if the change is meant)\n--- want\n%s--- got\n%s",
					e.ID, path, want, got.Bytes())
			}
		})
	}
}

// TestTable1Shape validates the headline reproduction invariants: equal
// accuracy across plain/OMG and a small runtime overhead.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	r, err := runTable1(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	if r.plainAcc != r.omgAcc {
		t.Fatalf("accuracy differs: plain %.3f vs omg %.3f", r.plainAcc, r.omgAcc)
	}
	if r.omgAcc < 0.5 {
		t.Fatalf("accuracy %.2f implausibly low", r.omgAcc)
	}
	if r.omgTotal <= r.plainTotal {
		t.Fatal("OMG not slower than plain")
	}
	overhead := float64(r.omgTotal-r.plainTotal) / float64(r.plainTotal)
	if overhead > 0.2 {
		t.Fatalf("overhead %.1f%% too large", overhead*100)
	}
	// Per-query times in the low single-digit milliseconds, like the paper
	// (379 ms / 100 utterances ≈ 3.8 ms).
	if ms := float64(r.omgPerQuery.Microseconds()) / 1000; ms < 1 || ms > 20 {
		t.Fatalf("per-query %v outside plausible band", r.omgPerQuery)
	}
}

// TestE8SeparatesConfigs: the side-channel experiment must show high
// leakage without the defence and coin-flip accuracy with it.
func TestE8Separation(t *testing.T) {
	accPlain, err := PrimeProbeTrials(150, false)
	if err != nil {
		t.Fatal(err)
	}
	accProt, err := PrimeProbeTrials(150, true)
	if err != nil {
		t.Fatal(err)
	}
	if accPlain < 0.95 {
		t.Fatalf("unprotected prime+probe accuracy %.2f, want ≈1.0", accPlain)
	}
	if accProt < 0.3 || accProt > 0.7 {
		t.Fatalf("protected prime+probe accuracy %.2f, want ≈0.5", accProt)
	}
}

func TestRegistryOrdering(t *testing.T) {
	exps := Experiments()
	for i := 1; i < len(exps); i++ {
		if idOrder(exps[i-1].ID) >= idOrder(exps[i].ID) {
			t.Fatalf("registry out of order: %s before %s", exps[i-1].ID, exps[i].ID)
		}
	}
	if _, ok := Lookup("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
	// E1..E10 numeric ordering, not lexicographic.
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	wantTail := []string{"E10", "E11", "E12", "E14", "F1", "F2"}
	for i, w := range wantTail {
		if ids[len(ids)-len(wantTail)+i] != w {
			t.Fatalf("tail ordering = %v", ids)
		}
	}
	// Check E2 comes right after E1.
	if ids[0] != "E1" || ids[1] != "E2" {
		t.Fatalf("head ordering = %v", ids)
	}
}
