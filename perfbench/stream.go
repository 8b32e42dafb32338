package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
)

// Stream sessions. Each lasts several seconds, far past the streamer's
// one-second warm-up, so per-hop Invoke dominates instead of stream open
// and close. The capacity search runs capStreams sessions at once.
const (
	p50StreamSeconds = 6
	capStreams       = 8
	capStreamSeconds = 16
)

// hopReply is one hop result as the client callback saw it.
type hopReply struct {
	hop   uint64
	label int
	err   error
	at    time.Time
}

// streamWireBytes is the wire cost per hop of a script: its chunk frames,
// the open and close frames with the close reply, and one result frame per
// hop.
func streamWireBytes(s *streamScript) float64 {
	b := 3*(netfront.HeaderLen+4) + netfront.HeaderLen + 12
	for _, c := range s.chunks {
		b += netfront.HeaderLen + 4 + 2*len(c)
	}
	b += len(s.labels) * (netfront.HeaderLen + 16)
	return float64(b) / float64(len(s.labels))
}

// runStream sends stream sessions over loopback TCP to the same bare-Server
// front end as oneshot, in chunks not aligned to the hop. Every 20 ms hop
// costs one incremental FFT and one Invoke, so tflm dominates, the full
// frontend extract is bypassed and the wire cost is spread over many hops.
func runStream(r *run) error {
	c := newCorpus(r.seed)
	model, err := buildModel(primaryModelSeed)
	if err != nil {
		return err
	}
	ref, err := newRefPipe(model)
	if err != nil {
		return err
	}
	if _, err := r.simCounts(c, model); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed + 1))
	p50Scripts := make([]*streamScript, r.scale(24))
	capScripts := make([]*streamScript, capStreams)
	for i := range p50Scripts {
		if p50Scripts[i], err = newStreamScript(c, rng, p50StreamSeconds, closedChunks, ref); err != nil {
			return err
		}
	}
	for i := range capScripts {
		if capScripts[i], err = newStreamScript(c, rng, max(2, r.scale(capStreamSeconds)), openChunks, ref); err != nil {
			return err
		}
	}
	first, err := newStreamScript(c, rng, 1, closedChunks, ref)
	if err != nil {
		return err
	}
	r.note("corpus: %d utterances, %d spoken labels; first script %d hops, %d reference labels",
		len(c.utts), distinct(c.labels), len(p50Scripts[0].labels), distinct(p50Scripts[0].labels))

	// The first reply of a stream deployment is the first hop of a
	// one-second stream.
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
		o := ok
		err := playClosed(nd.clients[0], first, func(h hopReply, _ time.Duration) {
			if got := classify(h.err, h.label, first.labels[h.hop]); got != ok {
				o = got
			}
		})
		if err != nil {
			return failed
		}
		return o
	})
	if err != nil {
		return err
	}
	defer nd.close()
	r.markSteady()

	// Closed loop, one stream at a time, in blocks between the capacity
	// steps: send a chunk, wait for the hops it completes; each hop's
	// latency runs from that Send to its callback.
	hopsTotal := 0
	for _, s := range p50Scripts {
		hopsTotal += len(s.labels)
	}
	loop := func(p *phase, lat *samples, traced bool) *blocks {
		b := &blocks{n: len(p50Scripts)}
		b.op = func(i int) {
			s := p50Scripts[i]
			p.sent.Add(int64(len(s.labels)))
			err := playClosed(nd.clients[0], s, func(h hopReply, d time.Duration) {
				if traced {
					r.tr.add("req", h.at.Add(-d), h.at)
				}
				lat.add(d)
				p.record(classify(h.err, h.label, s.labels[h.hop]))
			})
			if err != nil && b.err == nil {
				b.err = err
			}
		}
		return b
	}
	lat, tlat := newSamples(hopsTotal), newSamples(hopsTotal)
	plain := loop(r.newPhase("p50"), lat, false)
	var traced, serial, compute *blocks
	if r.traced {
		traced = loop(r.newPhase("p50-traced"), tlat, true)
		// The same sessions in process: Stream.Submit to the hop's OnResult.
		sp := r.newPhase("server-serial")
		serial = &blocks{n: len(p50Scripts)}
		serial.op = func(i int) {
			s := p50Scripts[i]
			sp.sent.Add(int64(len(s.labels)))
			err := playInProcess(nd.srv, s, func(h hopReply, d time.Duration) {
				r.tr.add("server.stream_hop", h.at.Add(-d), h.at)
				sp.record(classify(h.err, h.label, s.labels[h.hop]))
			})
			if err != nil && serial.err == nil {
				serial.err = err
			}
		}
		if compute, err = r.computeBlocks(c, model); err != nil {
			return err
		}
	}

	// Saturation: every capacity session at once, each in closed loop.
	sat := r.newPhase("saturation")
	var chunks, hops int
	for _, s := range capScripts {
		chunks += len(s.chunks)
		hops += len(s.labels)
	}
	var satErr error
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range capScripts {
		sat.sent.Add(int64(len(s.labels)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := playClosed(nd.clients[i%2], s, func(h hopReply, _ time.Duration) {
				sat.record(classify(h.err, h.label, s.labels[h.hop]))
			})
			if err != nil {
				mu.Lock()
				satErr = err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if satErr != nil {
		return satErr
	}
	x0 := float64(chunks) / time.Since(start).Seconds()
	hopsPerChunk := float64(hops) / float64(chunks)

	capPhase := r.newPhase("capacity")
	capPhase.loaded = true
	capacity, steps := searchCapacity(x0, capacitySteps, func(k int, rate float64) stepResult {
		runBlocks(k, plain, traced, serial, compute)
		return playOpen(nd.clients, capScripts, rate, unitGaps(rng, chunks), capPhase, r.lag)
	})
	for _, b := range []*blocks{plain, traced, serial, compute} {
		if b != nil && b.err != nil {
			return b.err
		}
	}
	all := lat.sorted()
	p50 := quantile(all, 0.5)
	r.e2e["p50_ms"] = msOf(p50)
	r.note("p50 blocks: %d hops over %d streams, p50 %.4f ms, %s", len(all), len(p50Scripts), msOf(p50), tailLabel(all))
	r.e2e["capacity_rps"] = capacity * hopsPerChunk
	r.note("saturation: %.1f hops/s from %d closed-loop streams", x0*hopsPerChunk, capStreams)
	r.reportSteps("stream (hops/s)", hopsPerChunk, capacity, steps)
	r.clientStats(nd.clients)
	r.layer["wire.bytes_per_op"] = streamWireBytes(capScripts[0])

	if !r.traced {
		return nil
	}
	tl := tlat.sorted()
	s := r.tr.stats()
	r.computeMetrics(s)
	r.layer["trace.overhead_us"] = usOf(quantile(tl, 0.5) - p50)
	r.layer["wire.self_us"] = usOf(s["req"].p50 - s["server.stream_hop"].p50)
	r.layer["server.self_us"] = usOf(s["server.stream_hop"].p50) - r.layer["dsp.hop_us"] - r.layer["tflm.invoke_us"]
	r.note("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced (%+.1f us)", msOf(quantile(tl, 0.5)), msOf(p50), r.layer["trace.overhead_us"])
	return nil
}

// errStreamBroken reports a stream that failed as a whole (not one hop).
var errStreamBroken = errors.New("stream failed")

// playClosed plays one script on a new stream in closed loop and calls
// onHop for every hop with its reply and its latency from the Send of the
// chunk that completed it.
func playClosed(cl *client.Client, s *streamScript, onHop func(h hopReply, d time.Duration)) error {
	replies := make(chan hopReply, len(s.labels)+1) // one per hop, plus a stream failure
	st, err := cl.OpenStream(func(hop uint64, label int, err error) {
		replies <- hopReply{hop: hop, label: label, err: err, at: time.Now()}
	})
	if err != nil {
		return err
	}
	for j, chunk := range s.chunks {
		t0 := time.Now()
		if err := st.Send(chunk); err != nil {
			return fmt.Errorf("%w: send: %v", errStreamBroken, err)
		}
		for k := 0; k < s.hopsAfter[j]; k++ {
			h := <-replies
			if h.hop == client.NoHop || h.hop >= uint64(len(s.labels)) {
				return fmt.Errorf("%w: %v", errStreamBroken, h.err)
			}
			onHop(h, h.at.Sub(t0))
		}
	}
	if _, err := st.Close(); err != nil {
		return fmt.Errorf("%w: close: %v", errStreamBroken, err)
	}
	return nil
}

// playInProcess plays one script on an in-process core.Server stream in
// closed loop, timing each hop from the Submit of its chunk to its OnResult
// callback.
func playInProcess(srv *core.Server, s *streamScript, onHop func(h hopReply, d time.Duration)) error {
	st, err := srv.OpenStream()
	if err != nil {
		return err
	}
	replies := make(chan hopReply, len(s.labels))
	st.OnResult(func(hop uint64, res core.Result) {
		replies <- hopReply{hop: hop, label: res.Label, err: res.Err, at: time.Now()}
	})
	for j, chunk := range s.chunks {
		t0 := time.Now()
		if _, err := st.Submit(chunk); err != nil {
			return err
		}
		for k := 0; k < s.hopsAfter[j]; k++ {
			h := <-replies
			onHop(h, h.at.Sub(t0))
		}
	}
	return nil
}

// playOpen plays the scripts as concurrent streams in one open-loop step:
// arrival i sends the next chunk of one stream, round robin, at its due
// time, and each hop counts from the due time of the chunk that completed
// it. Each stream has its own sender so its chunks stay in order.
func playOpen(cls []*client.Client, scripts []*streamScript, rate float64, gaps []float64, p *phase, lag *loadgen.Histogram) stepResult {
	type arrival struct{ s, chunk int }
	var arr []arrival
	var results []int
	hopArrival := make([][]int, len(scripts))
	for k := 0; len(arr) < len(gaps); k++ {
		for si, s := range scripts {
			if k < len(s.chunks) {
				for h := 0; h < s.hopsAfter[k]; h++ {
					hopArrival[si] = append(hopArrival[si], len(arr))
				}
				arr = append(arr, arrival{si, k})
				results = append(results, s.hopsAfter[k])
			}
		}
	}
	st := &openStep{rate: rate, gaps: gaps, results: results, phase: p, lag: lag}
	queues := make([]chan int, len(scripts))
	var senders sync.WaitGroup
	for si, s := range scripts {
		queues[si] = make(chan int, len(s.chunks)) // one slot per chunk: fire never blocks
		var once sync.Once
		var next int // next hop due, advanced by the in-order callback
		var mu sync.Mutex
		// failRest completes every hop not yet delivered as failed, so a
		// broken stream cannot leave the step waiting.
		failRest := func() {
			once.Do(func() {
				mu.Lock()
				for h := next; h < len(s.labels); h++ {
					st.done(hopArrival[si][h], failed)
				}
				next = len(s.labels)
				mu.Unlock()
			})
		}
		stream, err := cls[si%len(cls)].OpenStream(func(hop uint64, label int, err error) {
			if hop == client.NoHop || hop >= uint64(len(s.labels)) {
				failRest()
				return
			}
			mu.Lock()
			if int(hop) < next {
				mu.Unlock()
				return
			}
			next = int(hop) + 1
			mu.Unlock()
			st.done(hopArrival[si][hop], classify(err, label, s.labels[hop]))
		})
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range queues[si] {
				if err == nil {
					err = stream.Send(s.chunks[arr[i].chunk])
				}
				if err != nil {
					failRest()
				}
			}
			if err == nil {
				_, err = stream.Close()
			}
			if err != nil {
				failRest()
			}
		}()
	}
	st.fire = func(i int, _ time.Time) { queues[arr[i].s] <- i }
	res := st.run()
	for _, q := range queues {
		close(q)
	}
	senders.Wait()
	return res
}
