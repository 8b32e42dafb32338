// Command perfbench is the end-to-end benchmark of the OMG node. It runs one
// workload per invocation:
//
//	perfbench --workload <enclave|oneshot|stream|tenants-swap> --seed <n> --seconds <s> --trace <0|1>
//
// (--workload all runs each workload untraced and traced, one process each)
// and prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end figures (setup_s, p50_ms, capacity_rps, rss_mb); with
// --trace 1 they are the per-layer figures derived from spans the benchmark
// records around each call into a layer. README.md gives the workloads, the
// metric definitions and which end-to-end figure each layer figure should
// move.
//
// The benchmark drives the program only through its public API: core.Session,
// core.Server, core.Registry, netfront.FrontEnd, netfront/client, the dsp
// frontend and streamer, and tflm.Interpreter. Every reply is checked against
// an in-process reference computed from the same input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"enclave":      runEnclave,
	"oneshot":      runOneshot,
	"stream":       runStream,
	"tenants-swap": runTenantsSwap,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: enclave, oneshot, stream, tenants-swap, or all of them")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 20, "length of the measured phases, in seconds (1-60)")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	)
	flag.Parse()
	if *workload == "all" && flag.NArg() == 0 {
		os.Exit(runAll(*seed, *seconds))
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <enclave|oneshot|stream|tenants-swap|all> --seed <n> --seconds <1-60> --trace <0|1>")
		os.Exit(2)
	}
	r := newRun(*workload, *seed, *seconds, *trace == 1)
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !r.finish() {
		os.Exit(1)
	}
}

// runAll runs every workload, untraced and traced, each in its own process
// so that no workload's memory or goroutines leak into another's figures,
// and returns the exit code: 1 if any run failed.
func runAll(seed int64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	for _, n := range names {
		for _, trace := range []string{"0", "1"} {
			fmt.Printf("== %s --trace %s\n", n, trace)
			cmd := exec.Command(exe, "--workload", n, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s --trace %s: %v\n", n, trace, err)
				code = 1
			}
		}
	}
	return code
}

// run is the state of one benchmark invocation: its options, the phases it
// ran with their operation counts, the metrics it computed, and the tracer
// of a traced run.
type run struct {
	workload string
	seed     int64
	seconds  int
	traced   bool

	phases []*phase
	e2e    map[string]float64
	layer  map[string]float64
	// exact holds the figures that must repeat exactly across runs with the
	// same seed (the exact-repeat guard).
	exact map[string]float64
	tr    *tracer
	lag   *loadgen.Histogram // open-loop dispatch lateness
	ids   atomic.Uint32
	notes []string

	memBase runtime.MemStats
	opsBase int64
	rss     *rssSampler
}

func newRun(workload string, seed int64, seconds int, traced bool) *run {
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		exact:    map[string]float64{},
		lag:      loadgen.NewHistogram(),
	}
	if traced {
		r.tr = newTracer()
	}
	for _, m := range layerMetrics {
		r.layer[m.name] = 0
	}
	return r
}

// scale returns n scaled by the run length relative to the default 20 s,
// at least 1. Every phase size derives from it, so the number of operations
// is a function of --seconds alone and repeats exactly across runs.
func (r *run) scale(n int) int {
	return max(1, n*r.seconds/20)
}

// newPhase registers a phase whose operation counts are reported.
func (r *run) newPhase(name string) *phase {
	p := &phase{name: name}
	r.phases = append(r.phases, p)
	return p
}

// note adds a line to the human-readable report printed before the result.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// markSteady snapshots the Go runtime counters at the start of the measured
// phases; finish divides their deltas by the operations sent since.
func (r *run) markSteady() {
	runtime.ReadMemStats(&r.memBase)
	r.opsBase = r.sentTotal()
	r.rss = startRSS()
}

func (r *run) sentTotal() int64 {
	var n int64
	for _, p := range r.phases {
		n += p.sent.Load()
	}
	return n
}

// finish prints the report and the result line and reports whether the run
// is correct: no wrong label, no failed operation, and every exact figure
// equal to the one an earlier run with the same seed recorded.
func (r *run) finish() bool {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ops := max(1, r.sentTotal()-r.opsBase)
	r.layer["go.allocs_per_op"] = float64(ms.Mallocs-r.memBase.Mallocs) / float64(ops)
	r.layer["go.gc_pause_ms"] = float64(ms.PauseTotalNs-r.memBase.PauseTotalNs) / 1e6
	r.e2e["rss_mb"] = r.rss.stop()

	var sent, ok, busy, shed, failed, wrong int64
	fmt.Printf("%-22s %8s %8s %6s %6s %6s %6s\n", "phase", "sent", "ok", "busy", "shed", "failed", "wrong")
	for _, p := range r.phases {
		c := p.counts()
		fmt.Printf("%-22s %8d %8d %6d %6d %6d %6d\n", p.name, c.sent, c.ok, c.busy, c.shed, c.failed, c.wrong)
		sent += c.sent
		ok += c.ok
		busy += c.busy
		shed += c.shed
		failed += c.failed
		wrong += c.wrong
	}
	r.layer["ops.sent"], r.layer["ops.ok"] = float64(sent), float64(ok)
	r.layer["ops.busy"], r.layer["ops.shed"] = float64(busy), float64(shed)
	r.layer["ops.failed"], r.layer["ops.wrong"] = float64(failed), float64(wrong)
	r.exact["ops.sent"] = float64(sent)
	r.layer["gen.lag_p50_ms"] = msOf(r.lag.Quantile(0.5))
	r.layer["gen.lag_p99_ms"] = msOf(r.lag.Quantile(0.99))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	if r.tr != nil {
		if path, err := r.tr.write(r.workload, r.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", r.tr.len(), path)
		}
	}

	guardOK := checkGuard(r)
	correct := wrong == 0 && failed == 0 && guardOK
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d replies disagreed with the reference\n", wrong)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d operations failed\n", failed)
	}

	metrics := map[string]any{}
	if r.traced {
		for _, m := range layerMetrics {
			metrics[m.name] = map[string]any{"value": r.layer[m.name], "unit": m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			v, ok := r.e2e[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.name)
				correct = false
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}
	printMetrics(metrics)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(1, sent),
		"failed":    failed + wrong,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

// printMetrics lists the reported metrics by name, one a line.
func printMetrics(metrics map[string]any) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n].(map[string]any)
		fmt.Printf("metric %-22s %14.6g %s\n", n, m["value"], m["unit"])
	}
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the untraced run's metrics, reported by every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"rss_mb", "MB"},
}

// layerMetrics are the traced run's metrics. A layer that a workload does
// not reach reports 0; README.md maps each one to the end-to-end metric and
// workload it should move.
var layerMetrics = []metricDef{
	{"gen.lag_p50_ms", "ms"}, {"gen.lag_p99_ms", "ms"},
	{"ops.sent", "count"}, {"ops.ok", "count"}, {"ops.busy", "count"},
	{"ops.shed", "count"}, {"ops.failed", "count"}, {"ops.wrong", "count"},
	{"client.retries", "count"}, {"client.redials", "count"},
	{"wire.self_us", "us"}, {"wire.bytes_per_op", "B"},
	{"server.self_us", "us"}, {"engine.us", "us"},
	{"registry.admit_us", "us"}, {"registry.busy", "count"},
	{"registry.shed", "count"}, {"registry.share_ratio", "ratio"},
	{"swap_ms", "ms"}, {"swap.overlap_p50_ms", "ms"},
	{"dsp.extract_us", "us"}, {"dsp.hop_us", "us"},
	{"tflm.invoke_us", "us"}, {"tflm.batch_us", "us"},
	{"enclave.self_us", "us"},
	{"sim_ms", "sim-ms"}, {"sim.frontend_ms", "sim-ms"},
	{"sim.invoke_ms", "sim-ms"}, {"sim.plain_ms", "sim-ms"},
	{"setup.prepare_ms", "ms"}, {"setup.initialize_ms", "ms"},
	{"setup.engine_ms", "ms"}, {"setup.connect_ms", "ms"},
	{"go.allocs_per_op", "allocs/op"}, {"go.gc_pause_ms", "ms"},
	{"trace.overhead_us", "us"},
}

// rssSampler samples the process's resident set while the measured phases
// run. rss_mb is the median sample: the peak is an extreme value that
// depends on when the garbage collector happened to run, the median is the
// memory the node holds while it serves.
type rssSampler struct {
	stopC, done chan struct{}
	mb          []float64
}

// rssEvery is the sampling interval of the resident set.
const rssEvery = 50 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stopC: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stopC:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median sample in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopC)
	<-s.done
	return medianOf(s.mb)
}

// residentMB reads the process's current resident set from /proc.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, err
	}
	return resident * float64(os.Getpagesize()) / (1 << 20), nil
}

// msOf and usOf convert a duration to float milliseconds / microseconds.
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }
