package main

import (
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
)

// servedSetups is how many fresh served deployments a run times; setup_s is
// their median.
const servedSetups = 21

// serverConfig is the engine every served workload runs: one worker per
// vCPU of a 2-vCPU host and a 64-deep queue.
var serverConfig = core.ServerConfig{Workers: 2, Queue: 64}

// oneshotWireBytes is the wire cost of one one-shot: the utterance frame
// (header, request id, 16000 PCM16 samples) and the result frame (header,
// id, label).
const oneshotWireBytes = netfront.HeaderLen + 4 + 2*16000 + netfront.HeaderLen + 8

// node is one served deployment: an engine (bare Server or Registry) behind
// a netfront front end on a loopback port, with its clients.
type node struct {
	srv     *core.Server
	reg     *core.Registry
	fe      *netfront.FrontEnd
	serving chan error
	clients []*client.Client
	engine  time.Duration // time spent constructing the engine
}

// listen serves fe on a fresh loopback port and dials one client per
// options entry (a client with a tenant or model says hello).
func (n *node) listen(fe *netfront.FrontEnd, opts ...client.Options) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.fe = fe
	n.serving = make(chan error, 1)
	go func() { n.serving <- fe.Serve(l) }()
	for _, o := range opts {
		cl, err := client.DialOptions("tcp", l.Addr().String(), o)
		if err != nil {
			return err
		}
		n.clients = append(n.clients, cl)
	}
	return nil
}

// close releases the clients, the front end and the engine, and waits for
// the front end's Serve to return.
func (n *node) close() {
	for _, cl := range n.clients {
		cl.Close()
	}
	if n.fe != nil {
		n.fe.Close()
		<-n.serving
	}
	if n.reg != nil {
		n.reg.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
}

// timeSetups builds servedSetups fresh nodes, timing each from engine
// construction through listen, dial and hello to the first correct reply,
// and keeps the last one for the measured phases.
func (r *run) timeSetups(build func() (*node, error), first func(*node) outcome) (*node, error) {
	setup := r.newPhase("setup")
	var totals, engines, connects []float64
	var cur *node
	for i := 0; i < servedSetups; i++ {
		if cur != nil {
			cur.close()
		}
		runtime.GC()
		t0 := time.Now()
		h := r.tr.begin("setup", 0, -1)
		nd, err := build()
		if err != nil {
			return nil, err
		}
		setup.sent.Add(1)
		setup.record(first(nd))
		d := time.Since(t0)
		r.tr.end(h)
		totals = append(totals, d.Seconds())
		engines = append(engines, msOf(nd.engine))
		connects = append(connects, msOf(d-nd.engine))
		cur = nd
	}
	r.e2e["setup_s"] = medianOf(totals)
	r.note("set-up: %s", spreadOf(totals, 1e3, "ms"))
	r.layer["setup.engine_ms"] = medianOf(engines)
	r.layer["setup.connect_ms"] = medianOf(connects)
	return cur, nil
}

// saturate runs n operations from `loops` concurrent closed loops and
// returns the completion rate: the first estimate of capacity.
func saturate(n, loops int, op func(i, loop int)) float64 {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < loops; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				op(i, w)
			}
		}()
	}
	wg.Wait()
	return float64(n) / time.Since(start).Seconds()
}

// nextID returns a fresh request id for a traced request.
func (r *run) nextID() uint32 { return r.ids.Add(1) }

// clientStats records the clients' retry and redial counters.
func (r *run) clientStats(cls []*client.Client) {
	var retries, redials uint64
	for _, cl := range cls {
		s := cl.Stats()
		retries += s.Retries
		redials += s.Redials
	}
	r.layer["client.retries"] = float64(retries)
	r.layer["client.redials"] = float64(redials)
}

// runOneshot sends 32 KB one-shot utterances over loopback TCP to a
// netfront front end over a bare core.Server: the wire and the full
// frontend extract dominate, the registry is bypassed.
func runOneshot(r *run) error {
	c := newCorpus(r.seed)
	model, err := buildModel(primaryModelSeed)
	if err != nil {
		return err
	}
	ref, err := newRefPipe(model)
	if err != nil {
		return err
	}
	want, err := ref.labels(c)
	if err != nil {
		return err
	}
	if _, err := r.simCounts(c, model); err != nil {
		return err
	}
	r.note("corpus: %d utterances, %d spoken labels, %d reference labels", len(c.utts), distinct(c.labels), distinct(want))

	nd, err := r.timeSetups(func() (*node, error) {
		t0 := time.Now()
		srv, err := core.NewServer(model, serverConfig)
		if err != nil {
			return nil, err
		}
		nd := &node{srv: srv, engine: time.Since(t0)}
		if err := nd.listen(netfront.NewFrontEnd(srv, netfront.Config{}), client.Options{}, client.Options{}); err != nil {
			nd.close()
			return nil, err
		}
		return nd, nil
	}, func(nd *node) outcome {
		label, err := nd.clients[0].Classify(c.utts[0])
		return classify(err, label, want[0])
	})
	if err != nil {
		return err
	}
	defer nd.close()
	r.markSteady()

	rng := rand.New(rand.NewSource(r.seed + 1))
	n := r.scale(4000)
	order := c.order(rng, n)
	loop := func(p *phase, lat *samples, traced bool) *blocks {
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
			t0 := time.Now()
			label, err := nd.clients[0].Classify(utt)
			lat.add(time.Since(t0))
			r.tr.end(h)
			p.sent.Add(1)
			p.record(classify(err, label, want[u]))
		}}
	}
	lat, tlat := newSamples(n), newSamples(n)
	plain := loop(r.newPhase("p50"), lat, false)
	var traced, serial, compute *blocks
	if r.traced {
		traced = loop(r.newPhase("p50-traced"), tlat, true)
		// The same utterances in process: Server.Submit to the ticket's Wait.
		sp := r.newPhase("server-serial")
		serial = &blocks{n: n, op: func(i int) {
			u := order[i]
			h := r.tr.begin("server.submit_wait", 0, -1)
			label, err := submitWait(nd.srv, c.utts[u])
			r.tr.end(h)
			sp.sent.Add(1)
			sp.record(classify(err, label, want[u]))
		}}
		if compute, err = r.computeBlocks(c, model); err != nil {
			return err
		}
	}

	sat := r.newPhase("saturation")
	satN := r.scale(3000)
	satOrder := c.order(rng, satN)
	x0 := saturate(satN, 8, func(i, loop int) {
		u := satOrder[i]
		label, err := nd.clients[loop%2].Classify(c.utts[u])
		sat.sent.Add(1)
		sat.record(classify(err, label, want[u]))
	})
	capPhase := r.newPhase("capacity")
	capPhase.loaded = true
	arrivals := r.scale(2000)
	capacity, steps := searchCapacity(x0, capacitySteps, func(k int, rate float64) stepResult {
		runBlocks(k, plain, traced, serial, compute)
		ord := c.order(rng, arrivals)
		st := &openStep{rate: rate, gaps: unitGaps(rng, arrivals), results: ones(arrivals), phase: capPhase, lag: r.lag}
		st.fire = func(i int, _ time.Time) {
			go func() {
				u := ord[i]
				label, err := nd.clients[i%2].Classify(c.utts[u])
				st.done(i, classify(err, label, want[u]))
			}()
		}
		return st.run()
	})
	all := lat.sorted()
	p50 := quantile(all, 0.5)
	r.e2e["p50_ms"] = msOf(p50)
	r.note("p50 blocks: %d one-shots, p50 %.4f ms, %s", n, msOf(p50), tailLabel(all))
	r.e2e["capacity_rps"] = capacity
	r.note("saturation: %.1f one-shots/s from 8 closed loops", x0)
	r.reportSteps("oneshot", 1, capacity, steps)
	r.clientStats(nd.clients)
	r.layer["wire.bytes_per_op"] = oneshotWireBytes

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
	r.layer["wire.self_us"] = usOf(s["req"].p50 - s["server.submit_wait"].p50)
	r.layer["server.self_us"] = usOf(s["server.submit_wait"].p50) - r.layer["dsp.extract_us"] - r.layer["tflm.invoke_us"]
	sum := r.layer["wire.self_us"] + r.layer["server.self_us"] + r.layer["dsp.extract_us"] + r.layer["tflm.invoke_us"]
	r.note("reconcile oneshot: p50_ms %.4f ms vs wire.self %.1f + server.self %.1f + dsp.extract %.1f + tflm.invoke %.1f = %.4f ms, residual %.4f ms",
		msOf(p50), r.layer["wire.self_us"], r.layer["server.self_us"], r.layer["dsp.extract_us"], r.layer["tflm.invoke_us"], sum/1e3, msOf(p50)-sum/1e3)
	r.note("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced (%+.1f us)", msOf(quantile(tl, 0.5)), msOf(p50), r.layer["trace.overhead_us"])
	return nil
}

// submitWait classifies one utterance in process through Server.Submit and
// the ticket's Wait.
func submitWait(srv *core.Server, utt []int16) (int, error) {
	p, err := srv.Submit(utt)
	if err != nil {
		return -1, err
	}
	res := p.Wait()
	p.Release()
	return res.Label, res.Err
}
