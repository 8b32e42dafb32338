package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/omgcrypto"
)

// enclaveSetups is how many fresh enclave deployments a run times; setup_s
// is their median.
const enclaveSetups = 11

// detIdentity derives an RSA identity from a fixed seed, so that building
// the deployment takes the same time on every run (rsa.GenerateKey does
// not: its prime search is randomised).
func detIdentity(subject string) (*omgcrypto.Identity, error) {
	key, err := omgcrypto.DeterministicRSAKey([]byte("perfbench/"+subject), omgcrypto.IdentityKeySize)
	if err != nil {
		return nil, err
	}
	return &omgcrypto.Identity{Subject: subject, Private: key}, nil
}

// steadyRand is the simulated device's random source: a DRBG stream that
// one-byte reads do not advance. rsa.GenerateKey reads one extra byte at
// random to keep callers from relying on its output; from a plain DRBG that
// would shift every later draw, so the device secret, the enclave key
// derived from it and the prime search Session.Prepare pays for that key
// would change from run to run. With it every run deploys the same device.
type steadyRand struct{ d *omgcrypto.DRBG }

func (s steadyRand) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return s.d.Read(p)
}

// runEnclave drives the paper's Table I path: Device.Speak then
// Session.Query on a simulated HiKey 960, through SANCTUARY and TrustZone
// with the world switch, the secure-microphone SMC, the full frontend and
// Invoke. Replies are checked against core.PlainRunner on the same audio.
func runEnclave(r *run) error {
	c := newCorpus(r.seed)
	model, err := buildModel(primaryModelSeed)
	if err != nil {
		return err
	}
	want, err := r.simCounts(c, model)
	if err != nil {
		return err
	}
	r.note("corpus: %d utterances, %d spoken labels, %d reference labels", len(c.utts), distinct(c.labels), distinct(want))

	// Identities and the device are built before any clock starts: their
	// key generation is not part of the deployment being measured.
	root, err := detIdentity("device-vendor")
	if err != nil {
		return err
	}
	vendorID, err := detIdentity("model-vendor")
	if err != nil {
		return err
	}
	dev, err := core.NewDevice(core.DeviceConfig{
		Root:           root,
		Rand:           steadyRand{omgcrypto.NewDRBG("perfbench-device")},
		EnclaveKeyBits: 1024,
		SoC:            hw.Config{BigCores: 2, LittleCores: 0, DRAMSize: 256 << 20},
	})
	if err != nil {
		return err
	}
	vendor, err := core.NewVendor(omgcrypto.NewDRBG("perfbench-vendor"), root.Public(), vendorID, model.Clone(), 1)
	if err != nil {
		return err
	}
	user, err := core.NewUser(root.Public(), vendor.Public())
	if err != nil {
		return err
	}

	// Set-up: fresh sessions on the same device, each timed from Prepare
	// (launch, boot, two attestations, provisioning) through Initialize
	// (key release, decrypt, decode, interpreter build) to the first
	// correct reply. All but the last are torn down again.
	setup := r.newPhase("setup")
	var totals, prepares, inits []float64
	var sess *core.Session
	for i := 0; i < enclaveSetups; i++ {
		if sess != nil {
			if err := sess.App.Teardown(); err != nil {
				return fmt.Errorf("teardown: %w", err)
			}
		}
		runtime.GC()
		sess = core.NewSession(dev, vendor, user, omgcrypto.NewDRBG(fmt.Sprintf("perfbench-session-%d", i)))
		u := i % len(c.utts)
		t0 := time.Now()
		h := r.tr.begin("setup.prepare", 0, -1)
		if err := sess.Prepare(vendor.Public()); err != nil {
			return err
		}
		r.tr.end(h)
		t1 := time.Now()
		h = r.tr.begin("setup.initialize", 0, -1)
		if err := sess.Initialize(); err != nil {
			return err
		}
		r.tr.end(h)
		t2 := time.Now()
		dev.Speak(c.utts[u])
		label, err := query(sess)
		t3 := time.Now()
		setup.sent.Add(1)
		setup.record(classify(err, label, want[u]))
		totals = append(totals, t3.Sub(t0).Seconds())
		prepares = append(prepares, msOf(t1.Sub(t0)))
		inits = append(inits, msOf(t2.Sub(t1)))
	}
	r.e2e["setup_s"] = medianOf(totals)
	r.note("set-up: %s", spreadOf(totals, 1e3, "ms"))
	r.layer["setup.prepare_ms"] = medianOf(prepares)
	r.layer["setup.initialize_ms"] = medianOf(inits)
	r.markSteady()

	// Closed loop, one user: Speak, then Query, timed from the Speak call
	// to the reply, in blocks between the capacity steps. The simulated
	// cycles each query charges to the enclave core must be identical for
	// every query.
	encCore := sess.App.Enclave().Core()
	rng := rand.New(rand.NewSource(r.seed + 1))
	n := r.scale(3000)
	order := c.order(rng, n)
	var perQuery uint64
	simErr := false
	loop := func(p *phase, lat *samples, traced bool) *blocks {
		return &blocks{n: n, op: func(i int) {
			u := order[i]
			before := encCore.Cycles()
			var h int32 = -1
			if traced {
				h = r.tr.root("req", 0)
			}
			t0 := time.Now()
			dev.Speak(c.utts[u])
			var q int32 = -1
			if traced {
				q = r.tr.begin("enclave.query", 0, h)
			}
			label, err := query(sess)
			r.tr.end(q)
			lat.add(time.Since(t0))
			r.tr.end(h)
			if cy := encCore.Cycles() - before; perQuery == 0 {
				perQuery = cy
			} else if cy != perQuery {
				simErr = true
			}
			p.sent.Add(1)
			p.record(classify(err, label, want[u]))
		}}
	}
	lat, tlat := newSamples(n), newSamples(n)
	plain := loop(r.newPhase("p50"), lat, false)
	var traced, compute *blocks
	if r.traced {
		traced = loop(r.newPhase("p50-traced"), tlat, true)
		if compute, err = r.computeBlocks(c, model); err != nil {
			return err
		}
	}

	// Open loop through the one enclave: arrivals queue for it in order.
	capPhase := r.newPhase("capacity")
	capPhase.loaded = true
	arrivals := r.scale(1200)
	plain.run(0)
	x0 := float64(n/capacitySteps) / plain.took[0].Seconds()
	capacity, steps := searchCapacity(x0, capacitySteps, func(k int, rate float64) stepResult {
		if k > 0 {
			plain.run(k)
		}
		runBlocks(k, traced, compute)
		ord := c.order(rng, arrivals)
		st := &openStep{rate: rate, gaps: unitGaps(rng, arrivals), results: ones(arrivals), phase: capPhase, lag: r.lag}
		queue := make(chan int, arrivals) // one slot per arrival: fire never blocks
		served := make(chan struct{})
		go func() {
			defer close(served)
			for i := range queue {
				u := ord[i]
				dev.Speak(c.utts[u])
				label, err := query(sess)
				st.done(i, classify(err, label, want[u]))
			}
		}()
		st.fire = func(i int, _ time.Time) { queue <- i }
		res := st.run()
		close(queue)
		<-served
		return res
	})
	if simErr {
		return fmt.Errorf("simulated cycles per query differ between queries")
	}
	r.layer["sim_ms"] = simMS(perQuery)
	r.exact["sim_ms"] = r.layer["sim_ms"]
	all := lat.sorted()
	p50 := quantile(all, 0.5)
	r.e2e["p50_ms"] = msOf(p50)
	r.note("p50 blocks: %d queries, p50 %.4f ms, %s", n, msOf(p50), tailLabel(all))
	r.e2e["capacity_rps"] = capacity
	r.reportSteps("enclave", 1, capacity, steps)

	if !r.traced {
		return nil
	}
	// The traced blocks ran the same closed loop with spans, and the
	// compute blocks the frontend and interpreter on the same utterances.
	if compute.err != nil {
		return compute.err
	}
	tl := tlat.sorted()
	r.layer["trace.overhead_us"] = usOf(quantile(tl, 0.5) - p50)
	s := r.tr.stats()
	r.computeMetrics(s)
	r.layer["enclave.self_us"] = usOf(s["enclave.query"].p50) - r.layer["dsp.extract_us"] - r.layer["tflm.invoke_us"]
	sum := r.layer["enclave.self_us"] + r.layer["dsp.extract_us"] + r.layer["tflm.invoke_us"]
	r.note("reconcile enclave: p50_ms %.4f ms vs enclave.self %.1f + dsp.extract %.1f + tflm.invoke %.1f = %.4f ms, residual %.4f ms",
		msOf(p50), r.layer["enclave.self_us"], r.layer["dsp.extract_us"], r.layer["tflm.invoke_us"], sum/1e3, msOf(p50)-sum/1e3)
	r.note("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced (%+.1f us)", msOf(quantile(tl, 0.5)), msOf(p50), r.layer["trace.overhead_us"])
	r.note("Table I: sim_ms %.4f (enclave) - sim.plain_ms %.4f = %.4f sim-ms OMG overhead per query",
		r.layer["sim_ms"], r.layer["sim.plain_ms"], r.layer["sim_ms"]-r.layer["sim.plain_ms"])
	return nil
}

// query runs one Session.Query and returns its label (-1 on error).
func query(s *core.Session) (int, error) {
	res, err := s.Query()
	if err != nil {
		return -1, err
	}
	return res.Label, nil
}

// ones returns n ones: every arrival produces one result.
func ones(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 1
	}
	return s
}
