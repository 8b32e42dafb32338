package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/tflm"
)

// The tenants-swap deployment: one model behind a Registry, two tenants
// with DRR weights 3:1 on one connection each, and a signed, encrypted hot
// swap between the primary and the alternate model every swapInterval.
const (
	modelID      = "kws"
	swapInterval = 100 * time.Millisecond
)

var tenantWeights = map[string]int{"a": 3, "b": 1}

// swapper hot-swaps the served model at a fixed interval. epoch is even
// while no swap runs and odd during one; epoch/2 swaps have completed, so
// model (epoch/2)%2 serves between swaps.
type swapper struct {
	reg    *core.Registry
	signer *core.SwapSigner
	models [2]*tflm.Model
	tr     *tracer

	epoch   atomic.Uint64
	version uint64
	mu      sync.Mutex
	durs    []float64 // ms per completed Swap
	errs    atomic.Int64
	stop    chan struct{}
	done    chan struct{}
}

func (s *swapper) start() {
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(swapInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.swapOnce()
			}
		}
	}()
}

// halt stops the swapper and waits for its goroutine to exit.
func (s *swapper) halt() {
	close(s.stop)
	<-s.done
}

// swapOnce swaps to the next version. The package is built by
// SwapSigner.Package outside the timed call.
func (s *swapper) swapOnce() {
	v := s.version + 1
	pkg, err := s.signer.Package(modelID, v, s.models[(v-1)%2])
	if err != nil {
		s.errs.Add(1)
		return
	}
	s.epoch.Add(1)
	h := s.tr.begin("swap", 0, -1)
	t0 := time.Now()
	err = s.reg.Swap(modelID, pkg)
	d := time.Since(t0)
	s.tr.end(h)
	s.epoch.Add(1)
	if err != nil {
		s.errs.Add(1)
		return
	}
	s.version = v
	s.mu.Lock()
	s.durs = append(s.durs, msOf(d))
	s.mu.Unlock()
}

// expect returns the labels a reply may carry given the epochs read before
// the request was sent and after its reply: the label of the model that
// served throughout, or of either model when a swap overlapped it.
func expect(want [2][]int, u int, e0, e1 uint64) []int {
	if e0 == e1 && e0%2 == 0 {
		return want[(e0/2)%2][u : u+1]
	}
	return []int{want[0][u], want[1][u]}
}

// runTenantsSwap sends one-shots from two weighted tenants through a
// Registry front end while the model is hot-swapped: the only workload
// that runs DRR admission, overload control and Registry.Swap, so a change
// to the read path that slows swaps, or the reverse, shows here.
func runTenantsSwap(r *run) error {
	c := newCorpus(r.seed)
	var models [2]*tflm.Model
	var want [2][]int
	for i, seed := range []int64{primaryModelSeed, alternateModelSeed} {
		m, err := buildModel(seed)
		if err != nil {
			return err
		}
		ref, err := newRefPipe(m)
		if err != nil {
			return err
		}
		if want[i], err = ref.labels(c); err != nil {
			return err
		}
		models[i] = m
	}
	if _, err := r.simCounts(c, models[0]); err != nil {
		return err
	}
	differ := 0
	for u := range c.utts {
		if want[0][u] != want[1][u] {
			differ++
		}
	}
	r.note("corpus: %d utterances, %d spoken labels; the two models disagree on %d", len(c.utts), distinct(c.labels), differ)

	signer, err := core.NewSwapSigner(nil)
	if err != nil {
		return err
	}
	tenants := map[string]core.TenantConfig{}
	for name, w := range tenantWeights {
		tenants[name] = core.TenantConfig{Weight: w}
	}
	cfg := core.RegistryConfig{Shards: 1, Server: serverConfig, Tenants: tenants}
	if r.traced {
		cfg.Engine = func(m *tflm.Model, sc core.ServerConfig) (core.Engine, error) {
			srv, err := core.NewServer(m, sc)
			if err != nil {
				return nil, err
			}
			return &timedEngine{Server: srv, tr: r.tr}, nil
		}
	}
	nd, err := r.timeSetups(func() (*node, error) {
		t0 := time.Now()
		reg, err := core.NewRegistry(map[string]core.ModelConfig{
			modelID: {Model: models[0], Version: 1, VendorPub: signer.VendorPub(), Key: signer.Key()},
		}, cfg)
		if err != nil {
			return nil, err
		}
		nd := &node{reg: reg, engine: time.Since(t0)}
		err = nd.listen(netfront.NewFrontEndRegistry(reg, netfront.Config{}),
			client.Options{Tenant: "a", Model: modelID}, client.Options{Tenant: "b", Model: modelID})
		if err != nil {
			nd.close()
			return nil, err
		}
		return nd, nil
	}, func(nd *node) outcome {
		label, err := nd.clients[0].Classify(c.utts[0])
		return classify(err, label, want[0][0])
	})
	if err != nil {
		return err
	}
	defer nd.close()
	sw := &swapper{reg: nd.reg, signer: signer, models: models, tr: r.tr, version: 1}
	r.markSteady()
	sw.start()
	swapping := true
	defer func() {
		if swapping {
			sw.halt()
		}
	}()

	// Closed loop alternating tenants, one request in flight, in blocks
	// between the capacity steps while swaps run; requests that overlapped
	// a swap also count separately.
	rng := rand.New(rand.NewSource(r.seed + 1))
	n := r.scale(4000)
	order := c.order(rng, n)
	loop := func(p *phase, lat, overlap *samples, traced bool) *blocks {
		buf := make([]int16, len(c.utts[0]))
		return &blocks{n: n, op: func(i int) {
			u := order[i]
			utt := c.utts[u]
			var h int32 = -1
			if traced {
				id := r.nextID()
				copy(buf, utt)
				tagID(buf, id)
				utt = buf
				h = r.tr.root("req", id)
			}
			e0 := sw.epoch.Load()
			t0 := time.Now()
			label, err := nd.clients[i%2].Classify(utt)
			d := time.Since(t0)
			e1 := sw.epoch.Load()
			r.tr.end(h)
			lat.add(d)
			if e0 != e1 || e0%2 == 1 {
				overlap.add(d)
			}
			p.sent.Add(1)
			p.record(classify(err, label, expect(want, u, e0, e1)...))
		}}
	}
	lat, tlat, overlap := newSamples(n), newSamples(n), newSamples(n)
	plain := loop(r.newPhase("p50"), lat, overlap, false)
	var traced, serial, compute *blocks
	if r.traced {
		traced = loop(r.newPhase("p50-traced"), tlat, newSamples(n), true)
		// The same utterances in process: Registry.Submit to the callback.
		// Its self time, less the engine span, is admission and dispatch.
		sp := r.newPhase("registry-serial")
		buf := make([]int16, len(c.utts[0]))
		replies := make(chan core.Result, 1)
		serial = &blocks{n: n, op: func(i int) {
			u := order[i]
			id := r.nextID()
			copy(buf, c.utts[u])
			tagID(buf, id)
			h := r.tr.root("registry.submit", id)
			e0 := sw.epoch.Load()
			err := nd.reg.Submit(modelID, "a", buf, time.Time{}, func(res core.Result) { replies <- res })
			label := -1
			if err == nil {
				res := <-replies
				label, err = res.Label, res.Err
			}
			r.tr.end(h)
			sp.sent.Add(1)
			sp.record(classify(err, label, expect(want, u, e0, sw.epoch.Load())...))
		}}
		if compute, err = r.computeBlocks(c, models[0]); err != nil {
			return err
		}
	}

	sat := r.newPhase("saturation")
	satN := r.scale(3000)
	satOrder := c.order(rng, satN)
	x0 := saturate(satN, 8, func(i, loop int) {
		u := satOrder[i]
		e0 := sw.epoch.Load()
		label, err := nd.clients[loop%2].Classify(c.utts[u])
		sat.sent.Add(1)
		sat.record(classify(err, label, expect(want, u, e0, sw.epoch.Load())...))
	})

	// Open loop: arrivals alternate between the tenants, so both offer the
	// same load against weights 3:1.
	capPhase := r.newPhase("capacity")
	capPhase.loaded = true
	arrivals := r.scale(2000)
	var okA, okB atomic.Int64
	capacity, steps := searchCapacity(x0, capacitySteps, func(k int, rate float64) stepResult {
		runBlocks(k, plain, traced, serial, compute)
		ord := c.order(rng, arrivals)
		st := &openStep{rate: rate, gaps: unitGaps(rng, arrivals), results: ones(arrivals), phase: capPhase, lag: r.lag}
		st.fire = func(i int, _ time.Time) {
			go func() {
				u := ord[i]
				e0 := sw.epoch.Load()
				label, err := nd.clients[i%2].Classify(c.utts[u])
				o := classify(err, label, expect(want, u, e0, sw.epoch.Load())...)
				if o == ok && i%2 == 0 {
					okA.Add(1)
				} else if o == ok {
					okB.Add(1)
				}
				st.done(i, o)
			}()
		}
		return st.run()
	})
	all := lat.sorted()
	p50 := quantile(all, 0.5)
	r.e2e["p50_ms"] = msOf(p50)
	ov := overlap.sorted()
	r.layer["swap.overlap_p50_ms"] = msOf(quantile(ov, 0.5))
	r.note("p50 blocks: %d one-shots under swaps, p50 %.4f ms, %s; %d overlapped a swap, p50 %.4f ms",
		n, msOf(p50), tailLabel(all), len(ov), msOf(quantile(ov, 0.5)))
	sw.halt()
	swapping = false
	r.e2e["capacity_rps"] = capacity
	r.note("saturation: %.1f one-shots/s from 8 closed loops", x0)
	r.reportSteps("tenants-swap", 1, capacity, steps)
	r.clientStats(nd.clients)
	r.layer["wire.bytes_per_op"] = oneshotWireBytes
	r.layer["swap_ms"] = medianOf(sw.durs)
	r.note("swaps: %d completed, %d failed, median %.3f ms", len(sw.durs), sw.errs.Load(), r.layer["swap_ms"])
	if e := sw.errs.Load(); e > 0 {
		return fmt.Errorf("%d hot swaps failed", e)
	}
	var busyN, shedN uint64
	for name := range tenantWeights {
		tc := nd.reg.TenantCounters(name)
		busyN += tc.Busy
		shedN += tc.Shed
	}
	r.layer["registry.busy"], r.layer["registry.shed"] = float64(busyN), float64(shedN)
	r.layer["registry.share_ratio"] = float64(okA.Load()) / float64(tenantWeights["a"]) / (float64(max(1, okB.Load())) / float64(tenantWeights["b"]))

	if !r.traced {
		return nil
	}
	if compute.err != nil {
		return compute.err
	}
	tl := tlat.sorted()
	s := r.tr.stats()
	r.computeMetrics(s)
	r.layer["trace.overhead_us"] = usOf(quantile(tl, 0.5) - p50)
	r.layer["engine.us"] = usOf(s["engine"].p50)
	r.layer["registry.admit_us"] = usOf(s["registry.submit"].self)
	r.layer["wire.self_us"] = usOf(s["req"].p50 - s["registry.submit"].p50)
	r.layer["server.self_us"] = r.layer["engine.us"] - r.layer["dsp.extract_us"] - r.layer["tflm.invoke_us"]
	r.note("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced (%+.1f us)", msOf(quantile(tl, 0.5)), msOf(p50), r.layer["trace.overhead_us"])
	return nil
}
