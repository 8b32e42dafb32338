package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStreamingExtract/full-4         	    2016	    572534 ns/op	       0 B/op	       0 allocs/op
BenchmarkStreamingExtract/streamer-4     	   98241	     11443 ns/op	       0 B/op	       0 allocs/op
BenchmarkQueryBatch/serial-4             	      75	  16269036 ns/op	         4.082 sim-ms/query	 3382030 B/op	     105 allocs/op
BenchmarkBatchInference/workers=4-4      	     100	   9000000 ns/op	      7111 utt/s	     120 B/op	       3 allocs/op
PASS
ok  	repro	6.773s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(f.Benchmarks))
	}
	if f.Context["goos"] != "linux" || !strings.Contains(f.Context["cpu"], "Xeon") {
		t.Fatalf("context not captured: %v", f.Context)
	}
	full := f.Benchmarks[0]
	if full.Name != "BenchmarkStreamingExtract/full" || full.Iters != 2016 || full.NsPerOp != 572534 {
		t.Fatalf("first benchmark misparsed: %+v", full)
	}
	if full.Metrics["allocs/op"] != 0 || full.Metrics["B/op"] != 0 {
		t.Fatalf("benchmem metrics misparsed: %+v", full.Metrics)
	}
	qb := f.Benchmarks[2]
	if qb.Metrics["sim-ms/query"] != 4.082 {
		t.Fatalf("custom metric misparsed: %+v", qb.Metrics)
	}
	if f.Benchmarks[3].Metrics["utt/s"] != 7111 {
		t.Fatalf("throughput metric misparsed: %+v", f.Benchmarks[3].Metrics)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok repro 0.1s\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func TestCompare(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-4", NsPerOp: 1000},
		{Name: "BenchmarkB-4", NsPerOp: 2000},
		{Name: "BenchmarkGone-4", NsPerOp: 5},
	}}
	newF := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-4", NsPerOp: 800},  // −20%: flagged faster
		{Name: "BenchmarkB-4", NsPerOp: 2300}, // +15%: flagged slower
		{Name: "BenchmarkNew-4", NsPerOp: 7},
	}}
	var sb strings.Builder
	Compare(&sb, oldF, newF, 10, nil)
	out := sb.String()
	for _, want := range []string{"(faster)", "(SLOWER)", "added", "removed", "-20.0%", "+15.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}
}

// TestCompareTolerance: the flag threshold follows -tol, so a ±15% move is
// quiet at tol=20 and flagged at tol=10.
func TestCompareTolerance(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{{Name: "BenchmarkB-4", NsPerOp: 2000}}}
	newF := &File{Benchmarks: []Benchmark{{Name: "BenchmarkB-4", NsPerOp: 2300}}}
	var sb strings.Builder
	Compare(&sb, oldF, newF, 20, nil)
	if strings.Contains(sb.String(), "SLOWER") {
		t.Fatalf("+15%% flagged at tol=20:\n%s", sb.String())
	}
	sb.Reset()
	Compare(&sb, oldF, newF, 10, nil)
	if !strings.Contains(sb.String(), "SLOWER") {
		t.Fatalf("+15%% not flagged at tol=10:\n%s", sb.String())
	}
}

// TestCompareGate: only gated benchmarks that regressed beyond the
// tolerance are reported for a non-zero exit.
func TestCompareGate(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkHot-4", NsPerOp: 1000},
		{Name: "BenchmarkCold-4", NsPerOp: 1000},
		{Name: "BenchmarkHotOK-4", NsPerOp: 1000},
	}}
	newF := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkHot-4", NsPerOp: 1500},   // gated, regressed
		{Name: "BenchmarkCold-4", NsPerOp: 1500},  // regressed but not gated
		{Name: "BenchmarkHotOK-4", NsPerOp: 1050}, // gated, within tolerance
	}}
	var sb strings.Builder
	regressed := Compare(&sb, oldF, newF, 10, regexp.MustCompile(`BenchmarkHot`))
	if len(regressed) != 1 || regressed[0] != "BenchmarkHot-4" {
		t.Fatalf("gate regressions = %v, want [BenchmarkHot-4]", regressed)
	}
	if r := Compare(&sb, oldF, newF, 60, regexp.MustCompile(`BenchmarkHot`)); len(r) != 0 {
		t.Fatalf("gate at tol=60 reported %v", r)
	}
}

// TestCompareMetrics: custom metrics ride the comparison with the direction
// inferred from their unit — "/op" units are costs, "/s" units are rates,
// unitless counts are informational, and the allocator metrics are omitted.
func TestCompareMetrics(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{{
		Name: "BenchmarkHot-4", NsPerOp: 1000,
		Metrics: map[string]float64{
			"sim-ms/op": 4.0, "Gmac/s": 2.8, "shards": 4, "B/op": 64, "allocs/op": 2,
		},
	}}}
	newF := &File{Benchmarks: []Benchmark{{
		Name: "BenchmarkHot-4", NsPerOp: 1000,
		Metrics: map[string]float64{
			"sim-ms/op": 5.0, "Gmac/s": 2.0, "shards": 2, "B/op": 4096, "allocs/op": 9,
		},
	}}}
	var sb strings.Builder
	regressed := Compare(&sb, oldF, newF, 10, regexp.MustCompile(`BenchmarkHot`))
	out := sb.String()
	// sim-ms/op +25% (cost up) and Gmac/s −29% (rate down) both gate; the
	// shards count halved but is unitless, so it prints without flagging.
	want := []string{"BenchmarkHot-4 [Gmac/s]", "BenchmarkHot-4 [sim-ms/op]"}
	if len(regressed) != 2 || regressed[0] != want[0] && regressed[1] != want[0] {
		t.Fatalf("gate regressions = %v, want %v", regressed, want)
	}
	for _, sub := range []string{"sim-ms/op", "Gmac/s", "shards"} {
		if !strings.Contains(out, "> "+sub) {
			t.Fatalf("metric row %q missing:\n%s", sub, out)
		}
	}
	if strings.Contains(out, "B/op") || strings.Contains(out, "allocs/op") {
		t.Fatalf("allocator metrics should be omitted:\n%s", out)
	}
	if strings.Count(out, "SLOWER") != 2 {
		t.Fatalf("want exactly 2 SLOWER flags (sim-ms/op, Gmac/s):\n%s", out)
	}
}

// TestCompareMetricsImprovement: rate increases and cost decreases flag as
// faster and never gate.
func TestCompareMetricsImprovement(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{{
		Name: "BenchmarkHot-4", NsPerOp: 1000,
		Metrics: map[string]float64{"utt/s": 6000, "sim-ms/op": 5.0},
	}}}
	newF := &File{Benchmarks: []Benchmark{{
		Name: "BenchmarkHot-4", NsPerOp: 1000,
		Metrics: map[string]float64{"utt/s": 7100, "sim-ms/op": 4.0},
	}}}
	var sb strings.Builder
	regressed := Compare(&sb, oldF, newF, 10, regexp.MustCompile(`.`))
	if len(regressed) != 0 {
		t.Fatalf("improvements gated: %v", regressed)
	}
	if strings.Count(sb.String(), "(faster)") != 2 {
		t.Fatalf("want 2 faster flags:\n%s", sb.String())
	}
}

// TestCompareGateRemoved: a gated benchmark missing from the new run fails
// the gate instead of silently passing.
func TestCompareGateRemoved(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{{Name: "BenchmarkHot-4", NsPerOp: 1000}}}
	newF := &File{Benchmarks: []Benchmark{{Name: "BenchmarkOther-4", NsPerOp: 1000}}}
	var sb strings.Builder
	regressed := Compare(&sb, oldF, newF, 10, regexp.MustCompile(`BenchmarkHot`))
	if len(regressed) != 1 || regressed[0] != "BenchmarkHot-4 (removed)" {
		t.Fatalf("gate regressions = %v, want removed BenchmarkHot-4", regressed)
	}
}

// TestParseStripsProcsSuffix: the -N GOMAXPROCS suffix of a multi-core run
// is dropped when every line carries it, so a suffixed run gates cleanly
// against an unsuffixed baseline (no gated benchmark reads as removed),
// while names whose digits are not a uniform suffix are kept verbatim.
func TestParseStripsProcsSuffix(t *testing.T) {
	base, err := Parse(strings.NewReader(`BenchmarkFrontendExtract   6436   188473 ns/op
BenchmarkStreamingExtract/streamer   296454   3850 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	head, err := Parse(strings.NewReader(`BenchmarkFrontendExtract-2   9735   190000 ns/op
BenchmarkStreamingExtract/streamer-2   473443   3900 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"BenchmarkFrontendExtract", "BenchmarkStreamingExtract/streamer"} {
		if head.Benchmarks[i].Name != want {
			t.Fatalf("suffixed name %d parsed as %q, want %q", i, head.Benchmarks[i].Name, want)
		}
	}
	var sb strings.Builder
	gate := regexp.MustCompile(`BenchmarkFrontendExtract|BenchmarkStreamingExtract`)
	if r := Compare(&sb, base, head, 25, gate); len(r) != 0 {
		t.Fatalf("suffixed run vs unsuffixed baseline gated: %v\n%s", r, sb.String())
	}
	if strings.Contains(sb.String(), "removed") || strings.Contains(sb.String(), "added") {
		t.Fatalf("names did not pair up:\n%s", sb.String())
	}
	// Mixed suffixes (a -cpu sweep) or a lone digit-ending sub-benchmark
	// name among unsuffixed ones: nothing is stripped.
	for _, out := range []string{
		"BenchmarkA-2   10   5 ns/op\nBenchmarkA-4   10   4 ns/op\n",
		"BenchmarkA   10   5 ns/op\nBenchmarkB/size-512   10   4 ns/op\n",
	} {
		f, err := Parse(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if want := strings.Fields(line)[0]; f.Benchmarks[i].Name != want {
				t.Fatalf("%q renamed to %q", want, f.Benchmarks[i].Name)
			}
		}
	}
}

// TestParseSuffixedRegressionStillGates: normalising the suffix must not
// disarm the gate — a suffixed run slower than the unsuffixed baseline
// beyond -tol still fails it.
func TestParseSuffixedRegressionStillGates(t *testing.T) {
	base, err := Parse(strings.NewReader("BenchmarkFrontendExtract   6436   100000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	head, err := Parse(strings.NewReader("BenchmarkFrontendExtract-2   6436   130000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r := Compare(&sb, base, head, 25, regexp.MustCompile(`BenchmarkFrontendExtract`))
	if len(r) != 1 || r[0] != "BenchmarkFrontendExtract" {
		t.Fatalf("+30%% at tol=25 gated as %v, want [BenchmarkFrontendExtract]:\n%s", r, sb.String())
	}
}
