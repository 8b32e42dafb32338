// Command omg-serve runs the netfront serving edge: a sharded multi-model
// core.Registry behind the length-prefixed wire protocol, on a TCP address
// and/or a Unix socket. It is the network face of the engine — the piece
// that lets external load (internal/netfront/client, the streaming-client
// example, BenchmarkNetServerThroughput) drive the same worker pools the
// in-process benchmarks measure.
//
// The models served are benchmark tiny_convs (random weights over the
// paper's geometry, tflm.BuildRandomTinyConv): omg-serve exercises the
// serving stack, not keyword accuracy. Swap in trained models by loading
// their OMGM bytes where buildModels is called.
//
// Usage:
//
//	omg-serve                                    serve "default" on 127.0.0.1:7071
//	omg-serve -models "kws=1:7,far=2:13"         two models; clients bind via hello
//	omg-serve -shards 2 -workers 4               2 shard servers × 4 workers per model
//	omg-serve -tenants "acme=10:256,trial=1:16"  weighted fair queueing + per-tenant caps
//	omg-serve -tcp :9000 -unix /tmp/omg.sock
//	omg-serve -drain 10s                         SIGTERM grace for in-flight streams
//
// Clients that skip the hello handshake are bound to -default-model (when
// set, or the sole model); requests name an unknown tenant fall under the
// default tenant policy.
//
// On SIGHUP every model is hot-swapped in place: the binary re-signs the
// current weights at the next version through an in-process vendor identity
// and drives core.Registry.Swap — zero accepted requests are dropped, and
// hello-bound clients observe the version bump on reconnect. (With trained
// models this is where new weights would be picked up from disk.)
//
// On SIGUSR1 the server prints a health dump: every model's per-shard
// circuit-breaker state, failure rate, rebuild count and worker liveness
// (core.Registry.Health), plus the count of failed SIGHUP swaps. The same
// snapshot is queryable over the wire via the client's Health method
// (FrameHealth). Breaker and overload control default on; tune them with
// -breaker-threshold/-breaker-cooldown/-overload-target or switch them off
// with -no-breaker/-no-overload.
//
// On SIGINT/SIGTERM the server drains gracefully: listeners close, quiet
// connections are released, and busy connections get the -drain grace to
// finish before being force-closed (ARCHITECTURE.md "Failure semantics").
// A second signal skips the grace and force-closes immediately.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
	"repro/internal/tflm"
)

// serveConfig is the parsed flag set, separated from flag.Parse so the
// validation rules are table-testable.
type serveConfig struct {
	TCPAddr      string
	UnixPath     string
	Workers      int
	Queue        int
	MaxBatch     int
	Shards       int
	Models       string // raw -models spec: "name=mul:seed,..."
	Tenants      string // raw -tenants spec: "name=weight:cap,..."
	DefaultModel string
	Drain        time.Duration

	NoBreaker        bool
	BreakerThreshold int
	BreakerCooldown  time.Duration
	NoOverload       bool
	OverloadTarget   time.Duration
}

// modelSpec is one parsed -models entry: the tiny_conv geometry to build.
type modelSpec struct {
	mul  int
	seed int64
}

// usageError marks a validation failure that should print flag usage and
// exit 2 — operator error, not a runtime fault.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// validate checks the flag set and parses the -models and -tenants specs.
// Every rejection is a usageError naming the offending flag and entry.
func (c serveConfig) validate() (map[string]modelSpec, map[string]core.TenantConfig, error) {
	if c.TCPAddr == "" && c.UnixPath == "" {
		return nil, nil, usageError{"nothing to listen on (set -tcp and/or -unix)"}
	}
	if c.Workers < 0 || c.Queue < 0 || c.MaxBatch < 0 {
		return nil, nil, usageError{"-workers, -queue, -max-batch must be >= 0"}
	}
	if c.Shards < 0 {
		return nil, nil, usageError{"-shards must be >= 0 (0 means 1)"}
	}
	if c.Drain < 0 {
		return nil, nil, usageError{"-drain must be >= 0"}
	}
	if c.BreakerThreshold < 0 || c.BreakerCooldown < 0 {
		return nil, nil, usageError{"-breaker-threshold and -breaker-cooldown must be >= 0 (0 = default)"}
	}
	if c.OverloadTarget < 0 {
		return nil, nil, usageError{"-overload-target must be >= 0 (0 = default)"}
	}

	models := map[string]modelSpec{}
	for _, entry := range splitSpec(c.Models) {
		name, rest, ok := strings.Cut(entry, "=")
		mulStr, seedStr, ok2 := strings.Cut(rest, ":")
		if !ok || !ok2 || name == "" {
			return nil, nil, usageError{fmt.Sprintf("-models entry %q: want name=mul:seed", entry)}
		}
		mul, err := strconv.Atoi(mulStr)
		if err != nil || mul < 1 {
			return nil, nil, usageError{fmt.Sprintf("-models entry %q: multiplier must be a positive integer", entry)}
		}
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, nil, usageError{fmt.Sprintf("-models entry %q: seed must be an integer", entry)}
		}
		if _, dup := models[name]; dup {
			return nil, nil, usageError{fmt.Sprintf("-models: duplicate model %q", name)}
		}
		models[name] = modelSpec{mul: mul, seed: seed}
	}
	if len(models) == 0 {
		return nil, nil, usageError{"-models is empty: nothing to serve"}
	}
	if c.DefaultModel != "" {
		if _, ok := models[c.DefaultModel]; !ok {
			return nil, nil, usageError{fmt.Sprintf("-default-model %q is not in -models", c.DefaultModel)}
		}
	}

	tenants := map[string]core.TenantConfig{}
	for _, entry := range splitSpec(c.Tenants) {
		name, rest, ok := strings.Cut(entry, "=")
		weightStr, capStr, ok2 := strings.Cut(rest, ":")
		if !ok || !ok2 || name == "" {
			return nil, nil, usageError{fmt.Sprintf("-tenants entry %q: want name=weight:cap", entry)}
		}
		weight, err := strconv.Atoi(weightStr)
		if err != nil || weight < 1 {
			return nil, nil, usageError{fmt.Sprintf("-tenants entry %q: weight must be a positive integer", entry)}
		}
		qcap, err := strconv.Atoi(capStr)
		if err != nil || qcap < 1 {
			return nil, nil, usageError{fmt.Sprintf("-tenants entry %q: queue cap must be a positive integer", entry)}
		}
		if _, dup := tenants[name]; dup {
			return nil, nil, usageError{fmt.Sprintf("-tenants: duplicate tenant %q", name)}
		}
		tenants[name] = core.TenantConfig{Weight: weight, MaxQueue: qcap}
	}
	return models, tenants, nil
}

// splitSpec splits a comma-separated spec, dropping empty segments so
// trailing commas are harmless.
func splitSpec(s string) []string {
	var out []string
	for _, seg := range strings.Split(s, ",") {
		if seg = strings.TrimSpace(seg); seg != "" {
			out = append(out, seg)
		}
	}
	return out
}

// formatHealth renders the SIGUSR1 health dump: one line per shard with its
// breaker state, rebuild generation, failure rate and worker liveness, plus
// the running count of failed SIGHUP swaps. Split from the signal loop so
// the format is testable.
func formatHealth(health []core.ModelHealth, swapFailures uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "omg-serve: health (swap failures: %d)\n", swapFailures)
	for _, mh := range health {
		fmt.Fprintf(&b, "  %s v%d:\n", mh.Model, mh.Version)
		for _, sh := range mh.Shards {
			fmt.Fprintf(&b, "    shard %d: %s gen=%d rate=%.1f%% consec=%d trips=%d rebuilds=%d workers=%d/%d\n",
				sh.Shard, sh.State, sh.Gen, sh.FailureRate*100,
				sh.ConsecutiveFailures, sh.Trips, sh.Rebuilds, sh.Live, sh.Workers)
		}
	}
	return b.String()
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.TCPAddr, "tcp", "127.0.0.1:7071", "TCP listen address (empty disables)")
	flag.StringVar(&cfg.UnixPath, "unix", "", "Unix socket path (empty disables)")
	flag.IntVar(&cfg.Workers, "workers", 0, "workers per shard server (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.Queue, "queue", 0, "submission queue depth per shard (0 = 2×workers)")
	flag.IntVar(&cfg.MaxBatch, "max-batch", 0, "max utterances per drained InvokeBatch (0 = default 8, 1 disables)")
	flag.IntVar(&cfg.Shards, "shards", 1, "shard servers per model (0 = 1)")
	flag.StringVar(&cfg.Models, "models", "default=1:7", "served models as name=mul:seed,... (tiny_conv width multiplier and weight seed)")
	flag.StringVar(&cfg.Tenants, "tenants", "", "tenant policies as name=weight:cap,... (DRR weight and queue cap; unnamed tenants get defaults)")
	flag.StringVar(&cfg.DefaultModel, "default-model", "", "model for hello-less connections (default: the sole model, else none)")
	flag.DurationVar(&cfg.Drain, "drain", 5*time.Second, "graceful-drain grace period on SIGTERM")
	flag.BoolVar(&cfg.NoBreaker, "no-breaker", false, "disable per-shard circuit breakers and the rebuild supervisor")
	flag.IntVar(&cfg.BreakerThreshold, "breaker-threshold", 0, "consecutive hard failures that trip a shard breaker (0 = default)")
	flag.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", 0, "base open-state cooldown before a breaker half-opens (0 = default)")
	flag.BoolVar(&cfg.NoOverload, "no-overload", false, "disable the queue-delay overload controller (per-tenant caps still apply)")
	flag.DurationVar(&cfg.OverloadTarget, "overload-target", 0, "target queue sojourn time before over-share tenants are shed (0 = default)")
	flag.Parse()

	specs, tenants, err := cfg.validate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "omg-serve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	signer, err := core.NewSwapSigner(nil)
	if err != nil {
		log.Fatalf("omg-serve: vendor identity: %v", err)
	}
	models := map[string]core.ModelConfig{}
	built := map[string]*tflm.Model{}
	for name, spec := range specs {
		m, err := tflm.BuildRandomTinyConv(spec.mul, spec.seed)
		if err != nil {
			log.Fatalf("omg-serve: build model %q: %v", name, err)
		}
		built[name] = m
		models[name] = core.ModelConfig{
			Model:     m,
			Version:   1,
			VendorPub: signer.VendorPub(),
			Key:       signer.Key(),
		}
	}
	reg, err := core.NewRegistry(models, core.RegistryConfig{
		Shards: cfg.Shards,
		Server: core.ServerConfig{
			Workers:  cfg.Workers,
			Queue:    cfg.Queue,
			MaxBatch: cfg.MaxBatch,
		},
		Tenants: tenants,
		Breaker: core.BreakerConfig{
			Disable:   cfg.NoBreaker,
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
		},
		Overload: core.OverloadConfig{
			Disable: cfg.NoOverload,
			Target:  cfg.OverloadTarget,
		},
	})
	if err != nil {
		log.Fatalf("omg-serve: registry: %v", err)
	}
	fe := netfront.NewFrontEndRegistry(reg, netfront.Config{DefaultModel: cfg.DefaultModel})

	var wg sync.WaitGroup
	serve := func(network, addr string) {
		l, err := net.Listen(network, addr)
		if err != nil {
			log.Fatalf("omg-serve: listen %s %s: %v", network, addr, err)
		}
		names := reg.Models()
		sort.Strings(names)
		fmt.Printf("omg-serve: listening on %s %s (models=%s shards=%d)\n",
			network, l.Addr(), strings.Join(names, ","), cfg.Shards)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fe.Serve(l); err != netfront.ErrFrontEndClosed {
				log.Printf("omg-serve: %s listener: %v", network, err)
			}
		}()
	}
	if cfg.TCPAddr != "" {
		serve("tcp", cfg.TCPAddr)
	}
	if cfg.UnixPath != "" {
		os.Remove(cfg.UnixPath) // a stale socket file would fail the bind
		serve("unix", cfg.UnixPath)
	}

	// SIGHUP hot-swaps every model in place at the next version; SIGUSR1
	// dumps the health snapshot. Both run on this goroutine, serialized —
	// overlapping signals queue behind the channel buffers. A failed swap
	// is logged per model AND counted: the counter surfaces in every health
	// dump, so silent HUP failures are visible long after they scrolled by.
	var swapFailures atomic.Uint64
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	stopHup := make(chan struct{})
	var hupWG sync.WaitGroup
	hupWG.Add(1)
	go func() {
		defer hupWG.Done()
		for {
			select {
			case <-stopHup:
				return
			case <-usr1:
				fmt.Print(formatHealth(reg.Health(), swapFailures.Load()))
				continue
			case <-hup:
			}
			for name, m := range built {
				v, _ := reg.ModelVersion(name)
				pkg, err := signer.Package(name, v+1, m)
				if err != nil {
					swapFailures.Add(1)
					log.Printf("omg-serve: package %q v%d: %v (swap failures: %d)", name, v+1, err, swapFailures.Load())
					continue
				}
				if err := reg.Swap(name, pkg); err != nil {
					swapFailures.Add(1)
					log.Printf("omg-serve: swap %q v%d: %v (swap failures: %d)", name, v+1, err, swapFailures.Load())
					continue
				}
				fmt.Printf("omg-serve: hot-swapped %q to v%d (zero dropped)\n", name, v+1)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("omg-serve: draining (grace %v; signal again to force)\n", cfg.Drain)
	close(stopHup)
	// A second signal force-closes: Shutdown polls connection quiescence, so
	// an impatient operator can cut the grace short.
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			fmt.Println("omg-serve: forced shutdown")
			fe.Close()
		case <-done:
		}
	}()
	if err := fe.Shutdown(cfg.Drain); err != nil {
		log.Printf("omg-serve: drain: %v", err)
	}
	close(done)
	wg.Wait() // listeners gone
	hupWG.Wait()
	reg.Close() // drain accepted work
	if cfg.UnixPath != "" {
		os.Remove(cfg.UnixPath)
	}
}
