package repro

// One benchmark (or benchmark group) per table/figure/claim of the paper's
// evaluation, mirroring the experiment index of internal/harness
// (go run ./cmd/omg-bench -list):
//
//	Table I / E1  BenchmarkTable1QueryPlain, BenchmarkTable1QueryOMG
//	E2            derived from the sim-ms metrics of the E1 benchmarks
//	E3            BenchmarkModelEncode, BenchmarkModelDecrypt
//	E4            BenchmarkWorldSwitch, BenchmarkSecureMicCapture,
//	              BenchmarkTable1Phases
//	E5 / Fig. 2   BenchmarkPreparePhase, BenchmarkInitializePhase
//	E6            BenchmarkEnclaveLifecycle, BenchmarkDeterministicRSAKey
//	E7            BenchmarkHEInference, BenchmarkMPCInference
//	E8            BenchmarkPrimeProbe
//	E10           BenchmarkModelScaling
//	(engine)      BenchmarkFFTFixed512, BenchmarkFrontendExtract,
//	              BenchmarkInterpreterInvoke, BenchmarkTrainEpoch
//
// Wall-clock numbers measure the simulator on the host; the sim-ms metric
// reports simulated device time where meaningful.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/harness"
	"repro/internal/he"
	"repro/internal/hw"
	"repro/internal/intnet"
	"repro/internal/loadgen"
	"repro/internal/mpc"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/omgcrypto"
	"repro/internal/sanctuary"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
	"repro/internal/train"
	"repro/internal/trustzone"
)

// Shared expensive fixtures, built once per bench run.
var (
	fixOnce     sync.Once
	fixRoot     *omgcrypto.Identity
	fixVendorID *omgcrypto.Identity
	fixModel    *tflm.Model
	fixUtt      []int16
)

func fixture(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		rng := omgcrypto.NewDRBG("bench-fixture")
		var err error
		if fixRoot, err = omgcrypto.NewIdentity(rng, "device-vendor"); err != nil {
			b.Fatal(err)
		}
		if fixVendorID, err = omgcrypto.NewIdentity(rng, "acme-models"); err != nil {
			b.Fatal(err)
		}
		if fixModel, err = tflm.BuildRandomTinyConv(1, 7); err != nil {
			b.Fatal(err)
		}
		gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
		fixUtt = gen.Utterance("yes", 3, 0)
	})
}

func benchDevice(b *testing.B, seed string) *core.Device {
	b.Helper()
	fixture(b)
	dev, err := core.NewDevice(core.DeviceConfig{
		Root:           fixRoot,
		Rand:           omgcrypto.NewDRBG("bench-device-" + seed),
		EnclaveKeyBits: 1024,
		SoC:            hw.Config{BigCores: 2, LittleCores: 2, DRAMSize: 256 << 20},
	})
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

func benchSession(b *testing.B, seed string) *core.Session {
	b.Helper()
	dev := benchDevice(b, seed)
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	vendor, err := core.NewVendor(omgcrypto.NewDRBG("bench-vendor-"+seed), fixRoot.Public(), fixVendorID, model, 1)
	if err != nil {
		b.Fatal(err)
	}
	user, err := core.NewUser(fixRoot.Public(), vendor.Public())
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewSession(dev, vendor, user, omgcrypto.NewDRBG("bench-session-"+seed))
	if err := s.Prepare(vendor.Public()); err != nil {
		b.Fatal(err)
	}
	if err := s.Initialize(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1QueryOMG measures one protected query (Table I, OMG row).
func BenchmarkTable1QueryOMG(b *testing.B) {
	s := benchSession(b, "t1omg")
	encCore := s.App.Enclave().Core()
	encCore.ResetCycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Device.Speak(fixUtt)
		if _, err := s.Query(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(encCore.Elapsed().Microseconds())/1000/float64(b.N), "sim-ms/op")
}

// BenchmarkTable1QueryPlain measures the unprotected baseline (Table I).
func BenchmarkTable1QueryPlain(b *testing.B) {
	fixture(b)
	soc := hw.NewSoC(hw.Config{BigCores: 1, LittleCores: 0, DRAMSize: 64 << 20})
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	plain, err := core.NewPlainRunner(soc, 0, model)
	if err != nil {
		b.Fatal(err)
	}
	plain.Core().ResetCycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soc.Microphone().Feed(fixUtt)
		if _, err := plain.Query(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(plain.Core().Elapsed().Microseconds())/1000/float64(b.N), "sim-ms/op")
}

// BenchmarkModelEncode serializes the model (E3's size measurement path).
func BenchmarkModelEncode(b *testing.B) {
	fixture(b)
	var size int
	for i := 0; i < b.N; i++ {
		blob, err := tflm.Encode(fixModel)
		if err != nil {
			b.Fatal(err)
		}
		size = len(blob)
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkModelDecrypt covers the initialization-phase AES-GCM open of the
// ~54 kB model package (E5, step 6).
func BenchmarkModelDecrypt(b *testing.B) {
	fixture(b)
	blob, err := tflm.Encode(fixModel)
	if err != nil {
		b.Fatal(err)
	}
	rng := omgcrypto.NewDRBG("bench-seal")
	key, _ := omgcrypto.RandomBytes(rng, omgcrypto.KeySize)
	env, err := omgcrypto.Seal(rng, key, blob, omgcrypto.ModelAAD(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := omgcrypto.Open(key, env, omgcrypto.ModelAAD(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldSwitch measures the SMC round trip (E4; paper: ~0.3 ms).
func BenchmarkWorldSwitch(b *testing.B) {
	dev := benchDevice(b, "switch")
	c := dev.SoC.Core(1)
	c.ResetCycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.Monitor.Call(c, func(trustzone.SecureContext) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Elapsed().Microseconds())/1000/float64(b.N), "sim-ms/op")
}

// BenchmarkSecureMicCapture measures the secure sensor path (E4).
func BenchmarkSecureMicCapture(b *testing.B) {
	s := benchSession(b, "miccap")
	encCore := s.App.Enclave().Core()
	encCore.ResetCycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Device.Speak(fixUtt)
		if _, err := s.App.CaptureOnly(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(encCore.Elapsed().Microseconds())/1000/float64(b.N), "sim-ms/op")
}

// BenchmarkTable1Phases splits one protected query (BenchmarkTable1QueryOMG)
// into its §V step 7–8 phases on one enclave, each with its host wall time
// and the simulated time it charges the enclave core: world_switch is the
// monitor's world-switch bracket around no secure work; mic_smc is Speak
// plus the SMC that drains the secure microphone and deposits PCM16 in the
// shared window (its world switch included); window_decode reads that
// window back inside the enclave; extract and invoke are the frontend and
// the interpreter, metered to the enclave core as Query meters them.
// ARCHITECTURE.md's Table I attribution is read from it.
func BenchmarkTable1Phases(b *testing.B) {
	s := benchSession(b, "t1phases")
	enc := s.App.Enclave()
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		b.Fatal(err)
	}
	ip, err := tflm.NewInterpreter(fixModel.Clone())
	if err != nil {
		b.Fatal(err)
	}
	rate := fe.Config().SampleRate
	var window []int16
	fp := fe.Extract(fixUtt)
	phase := func(name string, op func(env *sanctuary.Env) error) {
		b.Run(name, func(b *testing.B) {
			c := enc.Core()
			before := c.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.Run(op); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Cycles()-before)/float64(c.Hz())*1e3/float64(b.N), "sim-ms/op")
		})
	}
	phase("world_switch", func(env *sanctuary.Env) error {
		return s.Device.Monitor.Call(env.Core(), func(trustzone.SecureContext) error { return nil })
	})
	phase("mic_smc", func(env *sanctuary.Env) error {
		s.Device.Speak(fixUtt)
		_, err := env.CaptureMicBulk(rate)
		return err
	})
	phase("window_decode", func(env *sanctuary.Env) (err error) {
		window, err = env.ReadMicWindow(window, 0, rate)
		return err
	})
	phase("extract", func(env *sanctuary.Env) error {
		fp = fe.ExtractInto(fp, fixUtt)
		env.Core().Charge(fe.Cycles())
		return nil
	})
	phase("invoke", func(env *sanctuary.Env) error {
		ip.SetMeter(env.Core())
		return ip.Invoke()
	})
}

// BenchmarkPreparePhase runs the full preparation phase (E5 / Fig. 2 1–4).
func BenchmarkPreparePhase(b *testing.B) {
	fixture(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := benchDevice(b, "prep")
		model, err := tflm.BuildRandomTinyConv(1, 7)
		if err != nil {
			b.Fatal(err)
		}
		vendor, err := core.NewVendor(omgcrypto.NewDRBG("bench-vendor-prep"), fixRoot.Public(), fixVendorID, model, 1)
		if err != nil {
			b.Fatal(err)
		}
		user, err := core.NewUser(fixRoot.Public(), vendor.Public())
		if err != nil {
			b.Fatal(err)
		}
		s := core.NewSession(dev, vendor, user, omgcrypto.NewDRBG("bench-sess-prep"))
		b.StartTimer()
		if err := s.Prepare(vendor.Public()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInitializePhase runs phase II repeatedly against one prepared
// device (E5 / Fig. 2 steps 5–6).
func BenchmarkInitializePhase(b *testing.B) {
	s := benchSession(b, "init")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Initialize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnclaveLifecycle measures setup+boot+teardown (E6, §III-B).
func BenchmarkEnclaveLifecycle(b *testing.B) {
	dev := benchDevice(b, "lifecycle")
	fixture(b)
	vendorPub := fixVendorID.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, err := core.LaunchEnclave(dev, vendorPub, omgcrypto.NewDRBG("bench-lc"))
		if err != nil {
			b.Fatal(err)
		}
		if err := app.Teardown(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeterministicRSAKey measures the key derivation that dominates
// Prepare and the enclave set-up (E5/E6): 1024 bits is the enclave size the
// benchmarks and tests use, 2048 the production identity size. Each
// iteration derives from a fresh seed, so the benchmark averages over prime
// searches rather than timing one lucky or unlucky seed.
func BenchmarkDeterministicRSAKey(b *testing.B) {
	for _, bits := range []int{1024, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := omgcrypto.DeterministicRSAKey([]byte(fmt.Sprintf("bench-detrsa-%d", i)), bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHEInference is the E7 HE baseline at a reduced key size (the
// harness projects to 2048 bits; modexp scales ~cubically).
func BenchmarkHEInference(b *testing.B) {
	fixture(b)
	spec, err := intnet.FromModel(fixModel)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := he.GenerateKey(omgcrypto.NewDRBG("bench-paillier"), 256)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := he.NewEngine(sk, spec, omgcrypto.NewDRBG("bench-he"))
	if err != nil {
		b.Fatal(err)
	}
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		b.Fatal(err)
	}
	features := fe.Extract(fixUtt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Infer(features); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPCInference is the E7 2PC baseline (full tiny_conv).
func BenchmarkMPCInference(b *testing.B) {
	fixture(b)
	spec, err := intnet.FromModel(fixModel)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := mpc.NewProtocol(spec, 11)
	if err != nil {
		b.Fatal(err)
	}
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		b.Fatal(err)
	}
	features := fe.Extract(fixUtt)
	var wan float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := proto.Infer(features)
		if err != nil {
			b.Fatal(err)
		}
		wan = float64(rep.WANTime.Milliseconds())
	}
	b.ReportMetric(wan, "wan-ms/op")
}

// BenchmarkPrimeProbe measures one prime+probe trial round (E8).
func BenchmarkPrimeProbe(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		exclude bool
	}{{"unprotected", false}, {"partitioned", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.PrimeProbeTrials(10, cfg.exclude); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelScaling is E10: inference vs model width.
func BenchmarkModelScaling(b *testing.B) {
	for _, mul := range []int{1, 2, 4, 8} {
		b.Run(sizeName(mul), func(b *testing.B) {
			model, err := tflm.BuildRandomTinyConv(mul, int64(mul))
			if err != nil {
				b.Fatal(err)
			}
			ip, err := tflm.NewInterpreter(model)
			if err != nil {
				b.Fatal(err)
			}
			for i := range ip.Input(0).I8 {
				ip.Input(0).I8[i] = int8(i % 251)
			}
			simMS := float64(tflm.InferenceCycles(model)) / 2.4e9 * 1e3
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ip.Invoke(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(simMS, "sim-ms/op")
		})
	}
}

func sizeName(mul int) string {
	return map[int]string{1: "1x", 2: "2x", 4: "4x", 8: "8x"}[mul]
}

// BenchmarkFFTFixed512 measures the frontend's core primitive.
func BenchmarkFFTFixed512(b *testing.B) {
	re := make([]int32, 512)
	im := make([]int32, 512)
	for i := range re {
		re[i] = int32((i*2654435761 + 123) % 32768)
	}
	work := make([]int32, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, re)
		for j := range im {
			im[j] = 0
		}
		if err := dsp.FFTFixed(work, im); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontendExtract measures full fingerprint extraction through the
// zero-alloc ExtractInto path (Extract itself adds only the result slice).
func BenchmarkFrontendExtract(b *testing.B) {
	fixture(b)
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]uint8, fe.Config().FingerprintLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.ExtractInto(dst, fixUtt)
	}
}

// BenchmarkInterpreterInvoke measures the raw tiny_conv int8 inference.
func BenchmarkInterpreterInvoke(b *testing.B) {
	fixture(b)
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	ip, err := tflm.NewInterpreter(model)
	if err != nil {
		b.Fatal(err)
	}
	for i := range ip.Input(0).I8 {
		ip.Input(0).I8[i] = int8(i % 251)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ip.Invoke(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeBatch measures InvokeBatch: B staged utterances, each
// copied into the input, run through Invoke and copied out. The utt/s
// metric compares directly against BenchmarkInterpreterInvoke's inverse
// ns/op; the gap is the per-row staging copies, so expect parity.
func BenchmarkInvokeBatch(b *testing.B) {
	fixture(b)
	for _, batch := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			model, err := tflm.BuildRandomTinyConv(1, 7)
			if err != nil {
				b.Fatal(err)
			}
			ip, err := tflm.NewInterpreter(model)
			if err != nil {
				b.Fatal(err)
			}
			if err := ip.PlanBatch(batch); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < batch; j++ {
				row := ip.BatchInput(j)
				for i := range row {
					row[i] = int8((i + 31*j) % 251)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ip.InvokeBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "utt/s")
		})
	}
}

// BenchmarkGEMMMicroKernel isolates the int8 GEMM kernel on the hot shapes
// of the paper model — the conv patch GEMM (550 rows × 8 filters × depth
// 80, as contiguous rows), the FC sweep (1 × 12 × 4400), and a 16-row FC
// sweep (16 × 12 × 4400, the shape of a model whose FC input has 16 rows)
// — reporting MAC throughput, plus the tiny_conv conv
// node as Invoke runs it (conv_node_49x43: the interior copy into the
// padded image, then the implicit-GEMM kernel and its requantization over
// 550 windows). This is the micro-benchmark to rerun before retuning the
// kernel (ROADMAP rule), and the gated baseline any lane-packing experiment
// (e.g. the rejected 4-depth/16-bit layout, see swar.go) must beat.
func BenchmarkGEMMMicroKernel(b *testing.B) {
	gemm := func(m, n, k int) func() (*tflm.GEMMBench, error) {
		return func() (*tflm.GEMMBench, error) { return tflm.NewGEMMBench(m, n, k, 42) }
	}
	for _, c := range []struct {
		name  string
		build func() (*tflm.GEMMBench, error)
	}{
		{"conv_550x8x80", gemm(550, 8, 80)},
		{"fc_1x12x4400", gemm(1, 12, 4400)},
		{"fc_16x12x4400", gemm(16, 12, 4400)},
		{"conv_node_49x43", func() (*tflm.GEMMBench, error) { return tflm.NewConvNodeBench(42), nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			gb, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			gb.Run()
			if err := gb.Check(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gb.Run()
			}
			b.StopTimer()
			b.ReportMetric(float64(gb.MACs())*float64(b.N)/1e6/b.Elapsed().Seconds(), "mmac/s")
		})
	}
}

// BenchmarkStreamingExtract contrasts the steady-state incremental frontend
// against full fingerprint recomputation, per 20 ms hop: "full" runs
// ExtractInto over the whole one-second window for every hop, "streamer"
// pays one FFT plus ring rotation. The ISSUE acceptance bar is ≥10× and
// 0 allocs/op for the streamer.
func BenchmarkStreamingExtract(b *testing.B) {
	fixture(b)
	cfg := dsp.DefaultFrontend()
	utt := cfg.UtteranceSamples()
	hop := cfg.StrideSamples
	signal := make([]int16, 4*utt)
	for i := 0; i < len(signal); i += len(fixUtt) {
		copy(signal[i:], fixUtt)
	}
	b.Run("full", func(b *testing.B) {
		fe, err := dsp.NewFrontend(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]uint8, cfg.FingerprintLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i % ((len(signal) - utt) / hop)) * hop
			fe.ExtractInto(dst, signal[off:off+utt])
		}
	})
	b.Run("streamer", func(b *testing.B) {
		fe, err := dsp.NewFrontend(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st := dsp.NewStreamer(fe)
		st.Push(signal[:utt])
		dst := make([]uint8, cfg.FingerprintLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := utt + (i%((len(signal)-utt)/hop))*hop
			st.Push(signal[off : off+hop])
			st.Fingerprint(dst)
		}
	})
}

// BenchmarkServerThroughput measures the persistent submission queue: a
// batch of 64 utterances submitted as tickets, all in flight at once, over
// worker pools of 1, 2 and 4. The per-op time is for the whole batch; the
// utt/s metric is the throughput figure, which should scale near-linearly
// with workers on a host with that many cores.
func BenchmarkServerThroughput(b *testing.B) {
	fixture(b)
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	const batch = 64
	utts := make([][]int16, batch)
	for i := range utts {
		utts[i] = gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0).Samples
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			srv, err := core.NewServer(model, core.ServerConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			tickets := make([]*core.Pending, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, u := range utts {
					p, err := srv.Submit(u)
					if err != nil {
						b.Fatal(err)
					}
					tickets[j] = p
				}
				for _, p := range tickets {
					if r := p.Wait(); r.Err != nil {
						b.Fatal(r.Err)
					}
					p.Release()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "utt/s")
		})
	}
}

// BenchmarkNetServerThroughput measures the network serving edge end to
// end: N concurrent client connections over loopback TCP, each submitting
// one-shot utterances against one shared core.Server behind the netfront
// wire protocol. Compare against BenchmarkServerThroughput (the same pool
// without the wire) for the protocol's fixed per-utterance overhead —
// framing, two socket hops, and decode — which stream batching amortizes
// but one-shots pay in full.
func BenchmarkNetServerThroughput(b *testing.B) {
	fixture(b)
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utts := make([][]int16, 16)
	for i := range utts {
		utts[i] = gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0).Samples
	}
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 4, Queue: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	fe := netfront.NewFrontEnd(srv, netfront.Config{})
	go fe.Serve(l)
	defer fe.Close()
	for _, conns := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			clients := make([]*client.Client, conns)
			for i := range clients {
				c, err := client.Dial("tcp", l.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				clients[i] = c
				defer c.Close()
			}
			// Warm every connection's buffers and the server pools.
			for _, c := range clients {
				if _, err := c.Classify(utts[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, conns)
			for ci, c := range clients {
				n := b.N / conns
				if ci < b.N%conns {
					n++
				}
				wg.Add(1)
				go func(c *client.Client, n, ci int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						label, err := c.Classify(utts[(ci+i)%len(utts)])
						for errors.Is(err, client.ErrBusy) {
							label, err = c.Classify(utts[(ci+i)%len(utts)])
						}
						if err != nil {
							errs <- err
							return
						}
						if label < 0 {
							errs <- fmt.Errorf("conn %d: label %d", ci, label)
							return
						}
					}
				}(c, n, ci)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "utt/s")
		})
	}
}

// BenchmarkRegistryThroughput measures the multi-tenant registry tier at 1,
// 2, and 4 co-resident models: per iteration, a 64-utterance wave spread
// round-robin across the models flows through DRR admission into each
// model's shard set. Compare models=1 against BenchmarkServerThroughput
// workers=4 for the registry's scheduling overhead (one dispatcher hop and
// a tenant queue per submission); the multi-model points show isolation —
// adding models must not collapse per-model throughput beyond the shared
// CPU budget.
func BenchmarkRegistryThroughput(b *testing.B) {
	fixture(b)
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	const batch = 64
	utts := make([][]int16, batch)
	for i := range utts {
		utts[i] = gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0).Samples
	}
	for _, nm := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("models=%d", nm), func(b *testing.B) {
			models := map[string]core.ModelConfig{}
			names := make([]string, nm)
			for i := 0; i < nm; i++ {
				m, err := tflm.BuildRandomTinyConv(1, int64(7+i))
				if err != nil {
					b.Fatal(err)
				}
				names[i] = fmt.Sprintf("m%d", i)
				models[names[i]] = core.ModelConfig{Model: m, Version: 1}
			}
			reg, err := core.NewRegistry(models, core.RegistryConfig{
				Server:        core.ServerConfig{Workers: 4, Queue: 64},
				DefaultTenant: core.TenantConfig{MaxQueue: 4 * batch},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer reg.Close()
			// One preallocated callback serves every submission, so the
			// allocs column measures the registry, not the benchmark.
			var wg sync.WaitGroup
			done := func(core.Result) { wg.Done() }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wg.Add(batch)
				for j := 0; j < batch; j++ {
					if err := reg.Submit(names[j%nm], "", utts[j], time.Time{}, done); err != nil {
						b.Fatal(err)
					}
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "utt/s")
		})
	}
}

// BenchmarkRegistrySwapUnderLoad measures the hot-swap cutover itself: per
// op is one Registry.Swap — signature verify, envelope decrypt, new shard
// set spin-up, admitted-work flush barrier, old set drain — while four
// submitters keep constant one-shot load on the model. Package signing is
// excluded from the timer (vendor-side cost). The benchmark doubles as a
// zero-drop check: every load submission's callback must fire, so a swap
// that dropped work would deadlock a submitter and stall the run.
func BenchmarkRegistrySwapUnderLoad(b *testing.B) {
	fixture(b)
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utts := make([][]int16, 8)
	for i := range utts {
		utts[i] = gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0).Samples
	}
	signer, err := core.NewSwapSigner(nil)
	if err != nil {
		b.Fatal(err)
	}
	reg, err := core.NewRegistry(map[string]core.ModelConfig{
		"kws": {Model: model, Version: 1, VendorPub: signer.VendorPub(), Key: signer.Key()},
	}, core.RegistryConfig{
		Shards:        2,
		Server:        core.ServerConfig{Workers: 2, Queue: 16},
		DefaultTenant: core.TenantConfig{MaxQueue: 1024},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()

	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	var served atomic.Uint64
	for g := 0; g < 4; g++ {
		loadWG.Add(1)
		go func(g int) {
			defer loadWG.Done()
			done := make(chan struct{}, 1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := reg.Submit("kws", "", utts[(g+i)%len(utts)], time.Time{}, func(core.Result) {
					done <- struct{}{}
				}); err != nil {
					continue // tenant cap hit: back off by retrying
				}
				<-done
				served.Add(1)
			}
		}(g)
	}

	// Let the load reach steady state before timing: the zero-drop check
	// below needs at least one served utterance even at -benchtime 1x.
	for start := time.Now(); served.Load() == 0; {
		if time.Since(start) > 10*time.Second {
			b.Fatal("background load never started")
		}
		time.Sleep(time.Millisecond)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pkg, err := signer.Package("kws", uint64(i+2), model)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := reg.Swap("kws", pkg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	loadWG.Wait()
	if served.Load() == 0 {
		b.Fatal("background load served nothing — swaps starved the model")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "swap/s")
	b.ReportMetric(float64(served.Load())/float64(b.N), "utt/swap")
}

// BenchmarkRegistryDegraded measures serving throughput at degraded
// capacity: a 4-shard registry with shard 0's circuit breaker tripped open
// (an hour-long cooldown keeps it open and the supervisor idle for the
// whole run), so every wave is carried by the 3 survivors. Per op is one
// 64-utterance wave through Registry.Submit. Gated against
// BENCH_BASELINE.json: a regression here means the open-shard skip path got
// expensive or broken shards leak back into rotation.
func BenchmarkRegistryDegraded(b *testing.B) {
	fixture(b)
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	const batch = 64
	utts := make([][]int16, batch)
	for i := range utts {
		utts[i] = gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0).Samples
	}
	b.Run("shards=4,dead=1", func(b *testing.B) {
		model, err := tflm.BuildRandomTinyConv(1, 7)
		if err != nil {
			b.Fatal(err)
		}
		reg, err := core.NewRegistry(map[string]core.ModelConfig{
			"kws": {Model: model, Version: 1},
		}, core.RegistryConfig{
			Shards:        4,
			Server:        core.ServerConfig{Workers: 2, Queue: 64},
			DefaultTenant: core.TenantConfig{MaxQueue: 4 * batch},
			Breaker: core.BreakerConfig{
				Threshold:    1,
				Cooldown:     time.Hour, // stays open for the whole run
				CooldownMax:  time.Hour,
				RebuildAfter: 1 << 30, // supervisor never rebuilds it
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer reg.Close()

		// Kill shard 0: arm a panic on it and submit until the breaker
		// trips (rotation decides which shard serves each submission, so
		// arm before every probe).
		tripped := func() bool {
			for _, mh := range reg.Health() {
				for _, sh := range mh.Shards {
					if sh.Shard == 0 && sh.State == core.BreakerOpen {
						return true
					}
				}
			}
			return false
		}
		for i := 0; i < 1000 && !tripped(); i++ {
			reg.InjectPanicShard("kws", 0)
			done := make(chan struct{})
			if err := reg.Submit("kws", "", utts[i%batch], time.Time{}, func(core.Result) {
				close(done)
			}); err != nil {
				b.Fatal(err)
			}
			<-done
		}
		if !tripped() {
			b.Fatal("shard 0 breaker never tripped")
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			wg.Add(batch)
			for j := 0; j < batch; j++ {
				if err := reg.Submit("kws", "", utts[j], time.Time{}, func(core.Result) {
					wg.Done()
				}); err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "utt/s")
	})
}

// BenchmarkStreamingServer measures steady-state streamed hops through the
// persistent queue: per-op is one 20 ms hop (1 FFT + one inference).
func BenchmarkStreamingServer(b *testing.B) {
	fixture(b)
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dsp.DefaultFrontend()
	utt := cfg.UtteranceSamples()
	hop := cfg.StrideSamples
	signal := make([]int16, 4*utt)
	for i := 0; i < len(signal); i += len(fixUtt) {
		copy(signal[i:], fixUtt)
	}
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	stream, err := srv.OpenStream()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := stream.Submit(signal[:utt]); err != nil {
		b.Fatal(err)
	}
	var tail []*core.Pending
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := utt + (i%((len(signal)-utt)/hop))*hop
		tickets, err := stream.Submit(signal[off : off+hop])
		if err != nil {
			b.Fatal(err)
		}
		tail = append(tail, tickets...)
		for len(tail) > srv.Workers() {
			if r := tail[0].Wait(); r.Err != nil {
				b.Fatal(r.Err)
			}
			tail = tail[1:]
		}
	}
	for _, p := range tail {
		if r := p.Wait(); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkQueryBatch compares the enclave operation phase one query at a
// time against QueryBatch amortizing a whole batch over a single enclave
// Run (E12's third tier; sim-ms reports simulated enclave-core time).
func BenchmarkQueryBatch(b *testing.B) {
	const batch = 16
	b.Run("serial", func(b *testing.B) {
		s := benchSession(b, "qb-serial")
		encCore := s.App.Enclave().Core()
		encCore.ResetCycles()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for q := 0; q < batch; q++ {
				s.Device.Speak(fixUtt)
			}
			for q := 0; q < batch; q++ {
				if _, err := s.Query(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(encCore.Elapsed().Microseconds())/1000/float64(b.N*batch), "sim-ms/query")
	})
	b.Run("batched", func(b *testing.B) {
		s := benchSession(b, "qb-batched")
		encCore := s.App.Enclave().Core()
		encCore.ResetCycles()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for q := 0; q < batch; q++ {
				s.Device.Speak(fixUtt)
			}
			if _, err := s.App.QueryBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(encCore.Elapsed().Microseconds())/1000/float64(b.N*batch), "sim-ms/query")
	})
}

// BenchmarkTrainEpoch measures one SGD epoch of the float tiny_conv on a
// small corpus (the §VI training pipeline).
func BenchmarkTrainEpoch(b *testing.B) {
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		b.Fatal(err)
	}
	var samples []train.Sample
	for label := 0; label < speechcmd.NumLabels; label++ {
		for take := 0; take < 2; take++ {
			ex := gen.Example(label, 1, take)
			samples = append(samples, train.Sample{Features: fe.Extract(ex.Samples), Label: ex.Label})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := train.NewTinyConv(train.PaperTinyConv(), newRand(int64(i)))
		cfg := train.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.02, Momentum: 0.9, Seed: int64(i)}
		if err := train.Fit(m, samples, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// BenchmarkServedTailLatency is the SLO gate (ISSUE 10): open-loop Poisson
// runs from internal/loadgen against a live front end over loopback TCP,
// with the one-shot p99 reported as the gated custom metric. Unlike the
// throughput benchmarks above — closed loops that measure capacity — this
// fixes the offered rate well below saturation (~25% utilisation on the
// 1-CPU CI box) so the number it guards is queueing-plus-service tail
// latency under realistic load, the quantity the paper's on-device budget
// constrains.
//
// A p99 over one short run is a single order statistic: one CPU-steal
// stall on a shared host inflates every queued arrival and swings it by an
// order of magnitude. Each iteration therefore runs sloSubRuns independent
// sub-runs (distinct seeds) and the gated metric is the MEDIAN sub-run
// p99, which one stall event cannot move. ns/op is sub-runs × arrivals ×
// the inter-arrival period by construction and carries no signal; the
// gate polices p99-ms/op. The experiment size is fixed per iteration (so
// the metric is comparable across -benchtime settings); -benchtime 1x
// runs it exactly once, in about six seconds.
func BenchmarkServedTailLatency(b *testing.B) {
	fixture(b)
	srv, err := core.NewServer(fixModel, core.ServerConfig{Workers: 2, Queue: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	fe := netfront.NewFrontEnd(srv, netfront.Config{})
	go fe.Serve(l)
	defer fe.Close()

	target, err := loadgen.NewClientTarget(loadgen.ClientTargetConfig{
		Network:   "tcp",
		Addr:      l.Addr().String(),
		Conns:     4,
		Utterance: fixUtt,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer target.Close()
	// Warm the connections and server pools outside the measured window.
	if err := target.Do(loadgen.ClassOneShot, "", 0); err != nil {
		b.Fatal(err)
	}

	const (
		sloRate     = 500  // arrivals/s: ~25% of loopback one-shot capacity
		sloArrivals = 1000 // per sub-run: p99 is the 10th-worst sample
		sloSubRuns  = 3
	)
	var p99s []time.Duration
	merged := loadgen.NewHistogram()
	var offered, busy uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < sloSubRuns; r++ {
			rep, err := loadgen.Run(loadgen.Config{
				Rate:        sloRate,
				MaxArrivals: sloArrivals,
				Seed:        int64(1 + i*sloSubRuns + r),
			}, target)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Errors != 0 || rep.Inflight != 0 {
				b.Fatalf("run not clean: %v (%v)", rep, rep.ErrorSamples)
			}
			lat := rep.Latency(loadgen.ClassOneShot)
			p99s = append(p99s, lat.Quantile(0.99))
			merged.Merge(lat)
			offered += rep.Offered
			busy += rep.Busy
		}
	}
	b.StopTimer()
	sort.Slice(p99s, func(i, j int) bool { return p99s[i] < p99s[j] })
	b.ReportMetric(float64(p99s[len(p99s)/2])/1e6, "p99-ms/op")
	b.ReportMetric(float64(merged.Quantile(0.5))/1e6, "p50-ms")
	b.ReportMetric(float64(merged.Quantile(0.999))/1e6, "p99.9-ms")
	b.ReportMetric(float64(busy)/float64(offered), "busy-rate")
}
