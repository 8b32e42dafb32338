package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

func init() {
	register(Experiment{ID: "E12", Title: "Streaming serving: incremental DSP, persistent queue, enclave batching", Run: runE12})
}

// runE12 characterizes the streaming serving layer at its three tiers
// against their one-shot counterparts:
//
//   - dsp.Streamer vs full ExtractInto recomputation per 20 ms hop (the
//     ~NumFrames× frontend amortization),
//   - core.Server streamed hops vs Submit tickets over the equivalent
//     sliding windows (persistent queue + incremental DSP under
//     concurrency),
//   - KWSApp.QueryBatch vs serial Query (one enclave Run and batched mic
//     SMCs amortizing the per-query protected-path overhead of Table I).
//
// Wall times take the best of several repetitions; the enclave rows also
// report simulated device time, where the saved world switches show up.
func runE12(ctx *Ctx) (*Table, error) {
	hops := 400
	queries := 16
	reps := 5
	encReps := 9
	workers := 4
	if ctx.Quick {
		hops, reps, encReps, workers = 120, 3, 7, 2
	}
	feCfg := dsp.DefaultFrontend()
	utt := feCfg.UtteranceSamples()
	hop := feCfg.StrideSamples

	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	signal := make([]int16, 0, utt+hops*hop)
	for i := 0; len(signal) < utt+hops*hop; i++ {
		signal = append(signal, gen.Example(i%speechcmd.NumLabels, i, 0).Samples...)
	}

	// --- Tier 1: frontend, full recompute vs incremental streamer.
	fe, err := dsp.NewFrontend(feCfg)
	if err != nil {
		return nil, err
	}
	fp := make([]uint8, feCfg.FingerprintLen())
	fullPerHop := time.Duration(1<<62 - 1)
	streamPerHop := fullPerHop
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for h := 0; h < hops; h++ {
			fe.ExtractInto(fp, signal[h*hop:h*hop+utt])
		}
		fullPerHop = min(fullPerHop, time.Since(start)/time.Duration(hops))

		st := dsp.NewStreamer(fe)
		st.Push(signal[:utt]) // warm-up to steady state
		start = time.Now()
		for h := 0; h < hops; h++ {
			st.Push(signal[utt+h*hop : utt+(h+1)*hop])
			st.Fingerprint(fp)
		}
		streamPerHop = min(streamPerHop, time.Since(start)/time.Duration(hops))
	}
	ctx.Logf("E12: frontend %.1f µs/hop full, %.1f µs/hop streamed",
		us(fullPerHop), us(streamPerHop))

	// --- Tier 2: server, batch of sliding windows vs streamed hops.
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		return nil, err
	}
	srv, err := core.NewServer(model, core.ServerConfig{Workers: workers})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	windows := make([][]int16, hops)
	for h := range windows {
		windows[h] = signal[h*hop : h*hop+utt]
	}
	if err := submitAll(srv, windows[:min(len(windows), 2*workers)]); err != nil { // warm-up
		return nil, fmt.Errorf("E12 warm-up: %w", err)
	}
	batchPerUtt := time.Duration(1<<62 - 1)
	streamSrvPerHop := batchPerUtt
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if err := submitAll(srv, windows); err != nil {
			return nil, fmt.Errorf("E12 windows: %w", err)
		}
		batchPerUtt = min(batchPerUtt, time.Since(start)/time.Duration(len(windows)))

		stream, err := srv.OpenStream()
		if err != nil {
			return nil, err
		}
		if _, err := stream.Submit(signal[:utt-hop]); err != nil {
			return nil, err
		}
		start = time.Now()
		delivered := 0
		var tail []*core.Pending
		for h := 0; h < hops; h++ {
			tickets, err := stream.Submit(signal[utt-hop+h*hop : utt+h*hop])
			if err != nil {
				return nil, err
			}
			tail = append(tail, tickets...)
			for len(tail) > workers { // keep the queue busy, collect the rest
				if r := tail[0].Wait(); r.Err != nil {
					return nil, r.Err
				}
				tail = tail[1:]
				delivered++
			}
		}
		for _, p := range tail {
			if r := p.Wait(); r.Err != nil {
				return nil, r.Err
			}
			delivered++
		}
		if delivered != hops {
			return nil, fmt.Errorf("E12 stream: %d results for %d hops", delivered, hops)
		}
		streamSrvPerHop = min(streamSrvPerHop, time.Since(start)/time.Duration(hops))
	}
	ctx.Logf("E12: server %.1f µs/utt as tickets, %.1f µs/hop streamed",
		us(batchPerUtt), us(streamSrvPerHop))

	// --- Tier 3: enclave path, serial Query vs QueryBatch. Each serving
	// mode gets its own session so the suspend/resume mode's core
	// reallocation (which can migrate the enclave to a LITTLE core) cannot
	// contaminate the other rows' simulated clocks.
	f, err := ctx.fixture()
	if err != nil {
		return nil, err
	}
	serialWall, suspendWall, batchWall := maxDuration, maxDuration, maxDuration
	var serialSim, suspendSim, batchSim time.Duration

	sSerial, err := f.newSession("e12-serial", 1)
	if err != nil {
		return nil, err
	}
	sSuspend, err := f.newSession("e12-suspend", 1)
	if err != nil {
		return nil, err
	}
	sBatch, err := f.newSession("e12-batch", 1)
	if err != nil {
		return nil, err
	}

	// One timed pass of each serving mode; modes alternate order across
	// repetitions so cache warm-up bias cancels, and the best wall time per
	// mode is kept.
	runSerial := func() error {
		for q := 0; q < queries; q++ {
			sSerial.Device.Speak(f.Subset[q%len(f.Subset)].Samples)
		}
		encCore := sSerial.App.Enclave().Core()
		encCore.ResetCycles()
		start := time.Now()
		for q := 0; q < queries; q++ {
			if _, err := sSerial.Query(); err != nil {
				return fmt.Errorf("E12 serial query %d: %w", q, err)
			}
		}
		serialWall = min(serialWall, time.Since(start)/time.Duration(queries))
		serialSim = encCore.Elapsed() / time.Duration(queries)
		return nil
	}
	// The §V operation-phase pattern: "between queries the SANCTUARY core
	// can be reallocated to the commodity OS" — each query pays the
	// suspend/resume (power cycle + secure-world rebind) that keeps the
	// core available to the OS while the service idles. This is the
	// realistic always-on serial baseline QueryBatch amortizes away by
	// holding the enclave for the whole batch.
	runSuspend := func() error {
		for q := 0; q < queries; q++ {
			sSuspend.Device.Speak(f.Subset[q%len(f.Subset)].Samples)
		}
		sim := time.Duration(0)
		sSuspend.App.Enclave().Core().ResetCycles()
		start := time.Now()
		for q := 0; q < queries; q++ {
			if _, err := sSuspend.Query(); err != nil {
				return fmt.Errorf("E12 suspend query %d: %w", q, err)
			}
			sim += sSuspend.App.Enclave().Core().Elapsed()
			if err := sSuspend.App.Suspend(); err != nil {
				return err
			}
			if err := sSuspend.App.Resume(); err != nil {
				return err
			}
			// Resume may land on a different core; restart its clock.
			sSuspend.App.Enclave().Core().ResetCycles()
		}
		suspendWall = min(suspendWall, time.Since(start)/time.Duration(queries))
		suspendSim = sim / time.Duration(queries)
		return nil
	}
	runQueryBatch := func() error {
		for q := 0; q < queries; q++ {
			sBatch.Device.Speak(f.Subset[q%len(f.Subset)].Samples)
		}
		encCore := sBatch.App.Enclave().Core()
		encCore.ResetCycles()
		start := time.Now()
		if _, err := sBatch.App.QueryBatch(queries); err != nil {
			return fmt.Errorf("E12 query batch: %w", err)
		}
		batchWall = min(batchWall, time.Since(start)/time.Duration(queries))
		batchSim = encCore.Elapsed() / time.Duration(queries)
		return nil
	}
	for rep := 0; rep < encReps; rep++ {
		modes := []func() error{runSerial, runSuspend, runQueryBatch}
		for i := 0; i < len(modes); i++ {
			if err := modes[(i+rep)%len(modes)](); err != nil {
				return nil, err
			}
		}
	}
	ctx.Logf("E12: enclave %.2f / %.2f / %.2f ms/query serial / suspend-resume / batched (wall)",
		us(serialWall)/1000, us(suspendWall)/1000, us(batchWall)/1000)

	speed := func(base, opt time.Duration) string {
		return fmt.Sprintf("%.2fx", float64(base)/float64(opt))
	}
	rows := [][]string{
		{"frontend: full recompute", fmt.Sprintf("%.1f µs/hop", us(fullPerHop)), "-", "-", "1.00x"},
		{"frontend: streamer (1 FFT/hop)", fmt.Sprintf("%.1f µs/hop", us(streamPerHop)), "-", "-", speed(fullPerHop, streamPerHop)},
		{fmt.Sprintf("server: Submit tickets ×%d workers", workers), fmt.Sprintf("%.1f µs/utt", us(batchPerUtt)),
			"-", fmt.Sprintf("%.0f utt/s", perSec(batchPerUtt)), "1.00x"},
		{fmt.Sprintf("server: Stream.Submit ×%d workers", workers), fmt.Sprintf("%.1f µs/hop", us(streamSrvPerHop)),
			"-", fmt.Sprintf("%.0f hop/s", perSec(streamSrvPerHop)), speed(batchPerUtt, streamSrvPerHop)},
		{fmt.Sprintf("enclave: %d × Query (core held)", queries), fmt.Sprintf("%.2f ms/query", us(serialWall)/1000),
			fmt.Sprintf("%.2f", us(serialSim)/1000), "-", "1.00x"},
		{fmt.Sprintf("enclave: %d × Query + §V core realloc", queries), fmt.Sprintf("%.2f ms/query", us(suspendWall)/1000),
			fmt.Sprintf("%.2f", us(suspendSim)/1000), "-", speed(serialWall, suspendWall)},
		{fmt.Sprintf("enclave: QueryBatch(%d)", queries), fmt.Sprintf("%.2f ms/query", us(batchWall)/1000),
			fmt.Sprintf("%.2f", us(batchSim)/1000), "-", speed(serialWall, batchWall)},
	}
	return &Table{
		ID:      "E12",
		Title:   "Streaming serving: incremental DSP, persistent queue, enclave batching",
		Claim:   "(engine property, no paper counterpart: steady-state streaming cost)",
		Headers: []string{"Path", "Per-op (wall)", "Sim ms/op", "Throughput", "Speedup"},
		Rows:    rows,
		Wall:    Wall{Cols: []int{1, 3, 4}},
		Notes: []string{
			"frontend rows: one 20 ms hop; the streamer computes 1 FFT per hop vs 49 for full recomputation (bit-exact fingerprints)",
			"server rows: persistent worker queue; streamed hops reuse 48/49 frames so per-item cost drops below a full utterance",
			fmt.Sprintf("enclave rows: QueryBatch runs %d capture→extract→invoke iterations in one enclave Run, batching mic SMCs through the %d KiB shared window; the §V row suspends/resumes between queries (operation-phase core reallocation), the always-on pattern the batch amortizes away", queries, core.EnclaveSharedSWSize>>10),
			"wall times are best-of-reps with mode order rotated per rep; sim times are simulated enclave-core milliseconds per query",
		},
	}, nil
}

// maxDuration seeds best-of-reps minima.
const maxDuration = time.Duration(1<<62 - 1)

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// perSec converts a per-item duration to items per second.
func perSec(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(time.Second) / float64(d)
}
