// Command benchjson converts `go test -bench -benchmem` output to JSON and
// diffs two saved files, so the repository's performance trajectory is
// tracked PR over PR (make bench-save / make bench-cmp).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -save BENCH_abc123.json
//	benchjson -cmp BENCH_old.json BENCH_new.json
//
// The diff lists every benchmark present in both files with the ns/op
// delta; changes beyond the tolerance (-tol, default ±10%) are flagged.
// Custom ReportMetric units ride along as indented sub-rows: units ending
// in "/op" (sim-ms/op, ...) regress upward, units containing "/s" (utt/s,
// Gmac/s, MB/s, ...) regress downward, and unitless counts (shards, ...)
// are informational only. The allocator metrics B/op and allocs/op are
// deliberately omitted — they are tier-1 test material, not trajectory.
// Benchmarks appearing on only one side are reported as added/removed.
// Parsing drops the uniform -N GOMAXPROCS suffix go test appends on
// multi-core hosts, so names match across hosts with different core counts.
// Plain -cmp exits 0 regardless of deltas — it informs, the reader judges.
// With -gate REGEXP (the `make bench-gate` mode) the comparison instead
// exits 1 when any benchmark (or custom metric of a benchmark) matching the
// pattern is slower than the baseline by more than the tolerance, turning
// the committed BENCH_*.json snapshot into a regression gate for the hot
// paths.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name    string  `json:"name"`
	Iters   int64   `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every further "value unit" pair of the line: B/op,
	// allocs/op, and custom ReportMetric units (utt/s, sim-ms/op, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the saved benchmark snapshot.
type File struct {
	// Context lines (goos/goarch/pkg/cpu) from the bench run header.
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// Parse reads `go test -bench` text output.
func Parse(r io.Reader) (*File, error) {
	f := &File{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			f.Context[k] = strings.TrimSpace(v)
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %q: bad value %q", b.Name, fields[i])
			}
			if fields[i+1] == "ns/op" {
				b.NsPerOp = val
			} else {
				b.Metrics[fields[i+1]] = val
			}
		}
		f.Benchmarks = append(f.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines found")
	}
	stripProcsSuffix(f.Benchmarks)
	return f, nil
}

// stripProcsSuffix removes the "-N" GOMAXPROCS suffix that go test appends
// to every benchmark name when GOMAXPROCS > 1 (BenchmarkFrontendExtract-2 →
// BenchmarkFrontendExtract), so snapshots taken on hosts with different
// core counts compare by name instead of reading as removed + added. The
// suffix is dropped only when every name carries the same one: go test adds
// it uniformly, while a sub-benchmark name that merely ends in digits (with
// no suffix at GOMAXPROCS 1) does not repeat across the whole run.
func stripProcsSuffix(bs []Benchmark) {
	suffix := ""
	for i, b := range bs {
		cut := strings.LastIndexByte(b.Name, '-')
		if cut < 0 {
			return
		}
		n, err := strconv.Atoi(b.Name[cut+1:])
		if err != nil || n < 2 || b.Name[cut+1:] != strconv.Itoa(n) {
			return
		}
		if i == 0 {
			suffix = b.Name[cut:]
		} else if b.Name[cut:] != suffix {
			return
		}
	}
	for i := range bs {
		bs[i].Name = strings.TrimSuffix(bs[i].Name, suffix)
	}
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return &f, nil
}

// Compare renders the old→new delta report, flagging moves beyond ±tol
// percent. When gate is non-nil it returns the names of gated benchmarks
// (those matching the pattern) that regressed beyond the tolerance.
func Compare(w io.Writer, oldF, newF *File, tol float64, gate *regexp.Regexp) []string {
	oldBy := map[string]Benchmark{}
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := map[string]Benchmark{}
	var names []string
	for _, b := range newF.Benchmarks {
		newBy[b.Name] = b
		names = append(names, b.Name)
	}
	sort.Strings(names)
	var regressed []string
	fmt.Fprintf(w, "%-55s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		nb := newBy[name]
		ob, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(w, "%-55s %14s %14.0f %9s\n", name, "-", nb.NsPerOp, "added")
			continue
		}
		delta := 0.0
		if ob.NsPerOp > 0 {
			delta = (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		}
		flag := ""
		if delta <= -tol {
			flag = "  (faster)"
		} else if delta >= tol {
			flag = "  (SLOWER)"
			if gate != nil && gate.MatchString(name) {
				regressed = append(regressed, name)
			}
		}
		fmt.Fprintf(w, "%-55s %14.0f %14.0f %+8.1f%%%s\n", name, ob.NsPerOp, nb.NsPerOp, delta, flag)
		// Custom metric sub-rows (sim-ms/op, utt/s, Gmac/s, ...): same
		// tolerance, direction inferred from the unit.
		for _, unit := range metricUnits(ob, nb) {
			ov, nv := ob.Metrics[unit], nb.Metrics[unit]
			mdelta := 0.0
			if ov != 0 {
				mdelta = (nv - ov) / ov * 100
			}
			worse, better := metricDirection(unit, mdelta, tol)
			mflag := ""
			if better {
				mflag = "  (faster)"
			} else if worse {
				mflag = "  (SLOWER)"
				if gate != nil && gate.MatchString(name) {
					regressed = append(regressed, name+" ["+unit+"]")
				}
			}
			fmt.Fprintf(w, "%-55s %14.4g %14.4g %+8.1f%%%s\n", "  > "+unit, ov, nv, mdelta, mflag)
		}
	}
	for _, b := range oldF.Benchmarks {
		if _, ok := newBy[b.Name]; !ok {
			fmt.Fprintf(w, "%-55s %14.0f %14s %9s\n", b.Name, b.NsPerOp, "-", "removed")
			// A gated benchmark that vanished is a gate failure, not a
			// pass: silently dropping the hot-path measurement would
			// otherwise disarm the gate.
			if gate != nil && gate.MatchString(b.Name) {
				regressed = append(regressed, b.Name+" (removed)")
			}
		}
	}
	return regressed
}

// metricUnits returns the custom metric units shared by both sides of a
// comparison, sorted, minus the allocator metrics (B/op, allocs/op — memory
// behavior is pinned by tests, not by the perf trajectory).
func metricUnits(ob, nb Benchmark) []string {
	var units []string
	for unit := range nb.Metrics {
		if unit == "B/op" || unit == "allocs/op" {
			continue
		}
		if _, ok := ob.Metrics[unit]; ok {
			units = append(units, unit)
		}
	}
	sort.Strings(units)
	return units
}

// metricDirection classifies a metric delta: "/op" units are costs (up is
// worse), "/s" units are rates (down is worse), anything else — unitless
// counts like shards — is informational and never flagged.
func metricDirection(unit string, delta, tol float64) (worse, better bool) {
	switch {
	case strings.HasSuffix(unit, "/op"):
		return delta >= tol, delta <= -tol
	case strings.Contains(unit, "/s"):
		return delta <= -tol, delta >= tol
	default:
		return false, false
	}
}

func main() {
	save := flag.String("save", "", "parse bench output on stdin and write JSON to this file")
	cmp := flag.Bool("cmp", false, "compare two saved JSON files: benchjson -cmp OLD NEW")
	tol := flag.Float64("tol", 10, "percent ns/op change flagged as faster/SLOWER by -cmp")
	gate := flag.String("gate", "", "with -cmp: exit 1 if any benchmark matching this regexp is SLOWER beyond -tol")
	flag.Parse()

	switch {
	case *save != "":
		f, err := Parse(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*save, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(f.Benchmarks), *save)
	case *cmp:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -cmp [-tol PCT] [-gate REGEXP] OLD.json NEW.json")
			os.Exit(2)
		}
		oldF, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		newF, err := load(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var gateRe *regexp.Regexp
		if *gate != "" {
			if gateRe, err = regexp.Compile(*gate); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad -gate pattern:", err)
				os.Exit(2)
			}
		}
		regressed := Compare(os.Stdout, oldF, newF, *tol, gateRe)
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: gate FAILED, %d benchmark(s) regressed beyond %.0f%%: %s\n",
				len(regressed), *tol, strings.Join(regressed, ", "))
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchjson -save FILE < bench-output | benchjson -cmp [-tol PCT] [-gate REGEXP] OLD NEW")
		os.Exit(2)
	}
}
