// Command omg-loadgen is the SLO measurement rig: an open-loop
// (Poisson-arrival) load generator that drives a netfront server — a live
// omg-serve or an in-process front end it spins up itself — with mixed
// one-shot / stream / batch traffic across weighted tenants, and reports
// tail latency (p50/p90/p99/p99.9 from log-linear histograms), BUSY/shed/
// retry rates and the Jain fairness index. Results can be written as
// benchjson-schema JSON so runs land in the same BENCH trajectory as the
// benchmarks (`benchjson -cmp` across saved runs).
//
// Open-loop matters: the arrival schedule is drawn up front from a seeded
// exponential process and never waits on completions, so a slow server
// faces the full offered load instead of quietly throttling the generator
// (the closed-loop failure mode that hides bad tails). See ARCHITECTURE.md
// "Tail latency & SLOs".
//
// Usage:
//
//	omg-loadgen -addr 127.0.0.1:7071 -rate 500 -duration 10s
//	omg-loadgen -inproc -rate 800 -duration 5s -mix "oneshot=8,stream=1,batch=1"
//	omg-loadgen -inproc -tenants "acme=10,trial=1" -rate 2000 -duration 5s
//	omg-loadgen -inproc -workers 1 -queue 8 -max-batch 4 -rate 1800 -json run.json
//	omg-loadgen -addr 127.0.0.1:7071 -hedge-delay 2ms -hedge-max 1 -rate 300
//
// With -inproc the generator builds a benchmark tiny_conv model and serves
// it from an in-process front end on a loopback listener (a registry-backed
// one when -tenants is set, so DRR fairness and overload control are live);
// -workers/-queue/-max-batch/-shards shape that server —
// the knobs the ARCHITECTURE.md tuning table sweeps.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

// genConfig is the parsed flag set, separated from flag.Parse so the
// validation rules are table-testable.
type genConfig struct {
	Network string
	Addr    string
	Inproc  bool

	// In-process server shape (ignored with -addr).
	Workers  int
	Queue    int
	MaxBatch int
	Shards   int

	// Traffic shape.
	Rate        float64
	Duration    time.Duration
	MaxArrivals int
	Seed        int64
	Mix         string // raw -mix spec: "oneshot=8,stream=1,batch=1"
	Tenants     string // raw -tenants spec: "name=weight,..."
	Model       string
	Conns       int
	BatchSize   int
	StreamLen   int
	Timeout     time.Duration
	Retries     int
	HedgeDelay  time.Duration
	HedgeMax    int

	// Output.
	JSONPath string
	Name     string
}

// usageError marks a validation failure that should print flag usage and
// exit 2 — operator error, not a runtime fault.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// parseMix parses "oneshot=8,stream=1,batch=1" (any subset; weights are
// relative) into a loadgen.Mix. Empty means pure one-shot.
func parseMix(spec string) (loadgen.Mix, error) {
	var m loadgen.Mix
	if spec == "" {
		return m, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, usageError{fmt.Sprintf("-mix entry %q is not class=weight", part)}
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 {
			return m, usageError{fmt.Sprintf("-mix entry %q has a bad weight", part)}
		}
		switch name {
		case "oneshot":
			m.OneShot = w
		case "stream":
			m.Stream = w
		case "batch":
			m.Batch = w
		default:
			return m, usageError{fmt.Sprintf("-mix class %q (want oneshot/stream/batch)", name)}
		}
	}
	return m, nil
}

// parseTenants parses "acme=10,trial=1" into ordered tenant specs; the
// weight shapes both the arrival share and (in-process) the DRR share.
func parseTenants(spec string) ([]loadgen.TenantSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var out []loadgen.TenantSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		w := 1.0
		if ok {
			var err error
			if w, err = strconv.ParseFloat(val, 64); err != nil || w <= 0 {
				return nil, usageError{fmt.Sprintf("-tenants entry %q has a bad weight", part)}
			}
		} else {
			name = part
		}
		if name == "" || seen[name] {
			return nil, usageError{fmt.Sprintf("-tenants entry %q is empty or duplicate", part)}
		}
		seen[name] = true
		out = append(out, loadgen.TenantSpec{Name: name, Weight: w})
	}
	return out, nil
}

// validate checks the flag set and parses the -mix and -tenants specs.
func (c genConfig) validate() (loadgen.Mix, []loadgen.TenantSpec, error) {
	if c.Inproc == (c.Addr != "") {
		return loadgen.Mix{}, nil, usageError{"set exactly one of -addr or -inproc"}
	}
	if c.Rate <= 0 {
		return loadgen.Mix{}, nil, usageError{"-rate must be > 0"}
	}
	if c.Duration <= 0 && c.MaxArrivals <= 0 {
		return loadgen.Mix{}, nil, usageError{"set -duration and/or -max-arrivals"}
	}
	if c.Workers < 0 || c.Queue < 0 || c.MaxBatch < 0 || c.Shards < 0 {
		return loadgen.Mix{}, nil, usageError{"in-process server knobs must be >= 0"}
	}
	if c.Conns < 0 || c.BatchSize < 0 || c.StreamLen < 0 || c.Retries < 0 || c.HedgeMax < 0 {
		return loadgen.Mix{}, nil, usageError{"-conns, -batch-size, -stream-chunks, -retries, -hedge-max must be >= 0"}
	}
	if c.Timeout < 0 || c.HedgeDelay < 0 {
		return loadgen.Mix{}, nil, usageError{"-timeout and -hedge-delay must be >= 0"}
	}
	mix, err := parseMix(c.Mix)
	if err != nil {
		return loadgen.Mix{}, nil, err
	}
	tenants, err := parseTenants(c.Tenants)
	if err != nil {
		return loadgen.Mix{}, nil, err
	}
	return mix, tenants, nil
}

// inprocServe builds the tiny_conv model and an in-process front end on a
// loopback listener: a plain single-model server, or a registry (DRR +
// overload control) when tenants are declared. It returns the dial address
// and a shutdown func.
func inprocServe(cfg genConfig, tenants []loadgen.TenantSpec) (string, func(), error) {
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		return "", nil, err
	}
	sc := core.ServerConfig{
		Workers:  cfg.Workers,
		Queue:    cfg.Queue,
		MaxBatch: cfg.MaxBatch,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var fe *netfront.FrontEnd
	var stopBackend func()
	if len(tenants) > 0 {
		tcfgs := make(map[string]core.TenantConfig, len(tenants))
		for _, t := range tenants {
			tcfgs[t.Name] = core.TenantConfig{Weight: int(t.Weight + 0.5)}
		}
		reg, err := core.NewRegistry(
			map[string]core.ModelConfig{"default": {Model: model, Version: 1}},
			core.RegistryConfig{Shards: cfg.Shards, Server: sc, Tenants: tcfgs},
		)
		if err != nil {
			l.Close()
			return "", nil, err
		}
		fe = netfront.NewFrontEndRegistry(reg, netfront.Config{})
		stopBackend = func() { reg.Close() }
	} else {
		srv, err := core.NewServer(model, sc)
		if err != nil {
			l.Close()
			return "", nil, err
		}
		fe = netfront.NewFrontEnd(srv, netfront.Config{})
		stopBackend = func() { srv.Close() }
	}
	go fe.Serve(l)
	return l.Addr().String(), func() {
		fe.Close()
		stopBackend()
	}, nil
}

// run is the testable main body: validate, serve (maybe), generate, report.
func run(cfg genConfig, stdout, stderr *os.File) error {
	mix, tenants, err := cfg.validate()
	if err != nil {
		return err
	}
	network, addr := cfg.Network, cfg.Addr
	if cfg.Inproc {
		a, stop, err := inprocServe(cfg, tenants)
		if err != nil {
			return fmt.Errorf("in-process server: %w", err)
		}
		defer stop()
		network, addr = "tcp", a
	}

	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utt := gen.Utterance("yes", 3, 0)
	tenantNames := make([]string, len(tenants))
	for i, t := range tenants {
		tenantNames[i] = t.Name
	}
	target, err := loadgen.NewClientTarget(loadgen.ClientTargetConfig{
		Network:      network,
		Addr:         addr,
		Tenants:      tenantNames,
		Model:        cfg.Model,
		Conns:        cfg.Conns,
		Utterance:    utt,
		BatchSize:    cfg.BatchSize,
		StreamChunks: cfg.StreamLen,
		Timeout:      cfg.Timeout,
		Retry:        client.RetryPolicy{Attempts: cfg.Retries},
		Hedge:        client.HedgePolicy{Delay: cfg.HedgeDelay, Max: cfg.HedgeMax},
		Seed:         cfg.Seed,
	})
	if err != nil {
		return err
	}
	defer target.Close()

	rep, err := loadgen.Run(loadgen.Config{
		Rate:        cfg.Rate,
		Duration:    cfg.Duration,
		MaxArrivals: cfg.MaxArrivals,
		Seed:        cfg.Seed,
		Mix:         mix,
		Tenants:     tenants,
	}, target)
	if err != nil {
		return err
	}

	printReport(stderr, rep)
	if cfg.JSONPath != "" {
		out := stdout
		if cfg.JSONPath != "-" {
			f, err := os.Create(cfg.JSONPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out, cfg.Name); err != nil {
			return err
		}
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d requests failed (first: %s)", rep.Errors, strings.Join(rep.ErrorSamples, "; "))
	}
	return nil
}

// printReport renders the human-readable run summary.
func printReport(w *os.File, rep *loadgen.Report) {
	fmt.Fprintf(w, "%s\n", rep)
	for c := loadgen.ClassOneShot; c <= loadgen.ClassBatch; c++ {
		if h := rep.Latency(c); h.Count() > 0 {
			fmt.Fprintf(w, "  %-8s %s\n", c, h)
		}
	}
	if rep.Hints.Count() > 0 {
		fmt.Fprintf(w, "  hints    %s\n", rep.Hints)
	}
	if len(rep.TenantDone) > 1 {
		names := make([]string, 0, len(rep.TenantDone))
		for n := range rep.TenantDone {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  tenant %-10s done=%d\n", n, rep.TenantDone[n])
		}
	}
	s := rep.Client
	fmt.Fprintf(w, "  client   retries=%d redials=%d hedges=%d busy=%d\n", s.Retries, s.Redials, s.Hedges, s.Busy)
}

func main() {
	var cfg genConfig
	flag.StringVar(&cfg.Network, "network", "tcp", `dial network ("tcp" or "unix")`)
	flag.StringVar(&cfg.Addr, "addr", "", "server address to load (empty with -inproc)")
	flag.BoolVar(&cfg.Inproc, "inproc", false, "spin up an in-process front end instead of dialing -addr")
	flag.IntVar(&cfg.Workers, "workers", 0, "in-process: workers per shard engine (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.Queue, "queue", 0, "in-process: engine queue depth (0 = 2x workers)")
	flag.IntVar(&cfg.MaxBatch, "max-batch", 0, "in-process: max utterances drained per worker wakeup (0 = default)")
	flag.IntVar(&cfg.Shards, "shards", 0, "in-process: shard engines per model (0 = 1)")
	flag.Float64Var(&cfg.Rate, "rate", 200, "mean arrival rate, requests/second (Poisson)")
	flag.DurationVar(&cfg.Duration, "duration", 5*time.Second, "schedule horizon (0 with -max-arrivals set)")
	flag.IntVar(&cfg.MaxArrivals, "max-arrivals", 0, "cap on issued arrivals (0 = unlimited)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "schedule/jitter seed (same seed = same schedule)")
	flag.StringVar(&cfg.Mix, "mix", "", `traffic mix, e.g. "oneshot=8,stream=1,batch=1" (empty = all one-shot)`)
	flag.StringVar(&cfg.Tenants, "tenants", "", `weighted tenants, e.g. "acme=10,trial=1" (empty = anonymous)`)
	flag.StringVar(&cfg.Model, "model", "", "model id to bind connections to (empty = server default)")
	flag.IntVar(&cfg.Conns, "conns", 4, "connections per tenant")
	flag.IntVar(&cfg.BatchSize, "batch-size", 0, "utterances per batch request (0 = 4)")
	flag.IntVar(&cfg.StreamLen, "stream-chunks", 0, "sends per stream request (0 = 4)")
	flag.DurationVar(&cfg.Timeout, "timeout", 0, "per-one-shot deadline (0 = unbounded)")
	flag.IntVar(&cfg.Retries, "retries", 0, "one-shot retry attempts after the first")
	flag.DurationVar(&cfg.HedgeDelay, "hedge-delay", 0, "hedge one-shots after this long (0 = off)")
	flag.IntVar(&cfg.HedgeMax, "hedge-max", 0, "extra hedged attempts per request (0 = 1 when hedging)")
	flag.StringVar(&cfg.JSONPath, "json", "", `write benchjson-schema results here ("-" = stdout)`)
	flag.StringVar(&cfg.Name, "name", "Loadgen", "benchmark-style name for JSON entries")
	flag.Parse()

	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "omg-loadgen: %v\n", err)
		if _, ok := err.(usageError); ok {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}
