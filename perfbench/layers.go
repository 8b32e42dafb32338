package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/hw"
	"repro/internal/tflm"
)

// batchSize is the server's MaxBatch: how many queued utterances a worker
// drains into one InvokeBatch under load.
const batchSize = 8

// simMS converts simulated cycles on a HiKey 960 big core to milliseconds.
func simMS(cycles uint64) float64 { return float64(cycles) / hw.BigCoreHz * 1e3 }

// cycleMeter is the benchmark's own tflm.Meter: it counts the simulated
// cycles an interpreter charges.
type cycleMeter struct{ cycles uint64 }

func (m *cycleMeter) Charge(n uint64) { m.cycles += n }

// simCounts computes the exact simulated-time figures of the run's
// utterances: the frontend, one Invoke, and a whole plain (unprotected)
// query. Each is a count, identical for every utterance; a difference
// between utterances is an error. It also returns the PlainRunner label of
// every corpus utterance, the enclave workload's reference.
func (r *run) simCounts(c *corpus, model *tflm.Model) ([]int, error) {
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		return nil, err
	}
	ip, err := tflm.NewInterpreter(model.Clone())
	if err != nil {
		return nil, err
	}
	meter := &cycleMeter{}
	ip.SetMeter(meter)
	soc := hw.NewSoC(hw.Config{BigCores: 1, LittleCores: 0, DRAMSize: 64 << 20})
	plain, err := core.NewPlainRunner(soc, 0, model.Clone())
	if err != nil {
		return nil, err
	}
	var invokeCycles, plainCycles uint64
	labels := make([]int, len(c.utts))
	var fp []uint8
	for i, u := range c.utts {
		fp = fe.ExtractInto(fp, u)
		in := ip.Input(0)
		for j, f := range fp {
			in.I8[j] = int8(int32(f) - 128)
		}
		meter.cycles = 0
		if err := ip.Invoke(); err != nil {
			return nil, err
		}
		soc.Microphone().Feed(u)
		plain.Core().ResetCycles()
		res, err := plain.Query()
		if err != nil {
			return nil, fmt.Errorf("plain query %d: %w", i, err)
		}
		labels[i] = res.Label
		if i == 0 {
			invokeCycles, plainCycles = meter.cycles, plain.Core().Cycles()
		} else if meter.cycles != invokeCycles || plain.Core().Cycles() != plainCycles {
			return nil, fmt.Errorf("simulated cost differs between utterances (%d/%d vs %d/%d cycles)",
				meter.cycles, plain.Core().Cycles(), invokeCycles, plainCycles)
		}
	}
	r.layer["sim.frontend_ms"] = simMS(fe.Cycles())
	r.layer["sim.invoke_ms"] = simMS(invokeCycles)
	r.layer["sim.plain_ms"] = simMS(plainCycles)
	for _, k := range []string{"sim.frontend_ms", "sim.invoke_ms", "sim.plain_ms"} {
		r.exact[k] = r.layer[k]
	}
	switch r.workload {
	case "oneshot", "tenants-swap":
		r.layer["sim_ms"] = simMS(fe.Cycles() + invokeCycles)
	case "stream":
		r.layer["sim_ms"] = simMS(fe.HopCycles() + invokeCycles)
	}
	r.exact["sim_ms"] = r.layer["sim_ms"]
	return labels, nil
}

// computeBlocks times serial calls into the dsp and tflm layers on the
// run's utterances, one span per call: the full frontend extract and Invoke
// per operation, InvokeBatch at the server's MaxBatch every batchSize
// operations, and hopsPerOp streamer hops (Push of one hop of audio plus
// Fingerprint). Its blocks run between the capacity steps, like the closed
// loop whose latency these layers should add up to.
func (r *run) computeBlocks(c *corpus, model *tflm.Model) (*blocks, error) {
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		return nil, err
	}
	ip, err := tflm.NewInterpreter(model.Clone())
	if err != nil {
		return nil, err
	}
	if err := ip.PlanBatch(batchSize); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed + 101))
	n := r.scale(1200)
	order := c.order(rng, n)
	sfe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		return nil, err
	}
	st := dsp.NewStreamer(sfe)
	hop := dsp.DefaultFrontend().StrideSamples
	const hopsPerOp = 8
	var fp, hfp []uint8
	b := &blocks{n: n}
	b.op = func(i int) {
		utt := c.utts[order[i]]
		r.tr.timed("dsp.extract", func() { fp = fe.ExtractInto(fp, utt) })
		in := ip.Input(0)
		for j, f := range fp {
			in.I8[j] = int8(int32(f) - 128)
		}
		var ierr error
		r.tr.timed("tflm.invoke", func() { ierr = ip.Invoke() })
		bin := ip.BatchInput(i % batchSize)
		for j, f := range fp {
			bin[j] = int8(int32(f) - 128)
		}
		if i%batchSize == batchSize-1 {
			r.tr.timed("tflm.batch", func() {
				if err := ip.InvokeBatch(batchSize); err != nil {
					ierr = err
				}
			})
		}
		if ierr != nil && b.err == nil {
			b.err = ierr
		}
		for h := 0; h < hopsPerOp; h++ {
			off := (i*hopsPerOp + h) * hop % (len(utt) - hop)
			r.tr.timed("dsp.hop", func() {
				st.Push(utt[off : off+hop])
				hfp = st.Fingerprint(hfp)
			})
		}
	}
	return b, nil
}

// computeMetrics fills the dsp and tflm per-layer metrics from the spans.
func (r *run) computeMetrics(s map[string]stat) {
	r.layer["dsp.extract_us"] = usOf(s["dsp.extract"].p50)
	r.layer["dsp.hop_us"] = usOf(s["dsp.hop"].p50)
	r.layer["tflm.invoke_us"] = usOf(s["tflm.invoke"].p50)
	r.layer["tflm.batch_us"] = usOf(s["tflm.batch"].p50) / batchSize
}

// timedEngine is the benchmark's core.Engine decorator for the registry: it
// records an "engine" span from each tagged submission to its callback,
// joined to the request's root span through the id carried in the audio.
type timedEngine struct {
	*core.Server
	tr *tracer
}

func (e *timedEngine) wrap(samples []int16, fn func(core.Result)) func(core.Result) {
	id := readID(samples)
	if id == 0 {
		return fn
	}
	h := e.tr.begin("engine", id, e.tr.parentOf(id))
	return func(res core.Result) {
		e.tr.end(h)
		fn(res)
	}
}

func (e *timedEngine) SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(core.Result)) error {
	return e.Server.SubmitFuncDeadline(samples, deadline, e.wrap(samples, fn))
}

func (e *timedEngine) TrySubmitFuncDeadline(samples []int16, deadline time.Time, fn func(core.Result)) error {
	return e.Server.TrySubmitFuncDeadline(samples, deadline, e.wrap(samples, fn))
}
