package dsp

import (
	"bytes"
	"math/rand"
	"testing"
)

// streamerConfigs are the geometries the randomized equivalence test
// exercises: the paper frontend, a small overlapping window, a gapped
// geometry (stride > window) that exercises the inter-window skip path, and
// the FFT-size sweep of TestFrontendFFTSizeSweep.
func streamerConfigs() []FrontendConfig {
	return append([]FrontendConfig{
		DefaultFrontend(),
		{SampleRate: 4000, WindowSamples: 48, StrideSamples: 32, FFTSize: 64, NumBins: 32, AvgWidth: 5, NumFrames: 5},
		{SampleRate: 4000, WindowSamples: 32, StrideSamples: 48, FFTSize: 32, NumBins: 16, AvgWidth: 3, NumFrames: 4},
	}, sweepConfigs()...)
}

// TestStreamerMatchesFullRecompute is the PR-1 equivalence rule applied to
// the streamer: after every completed frame, the rotated fingerprint must be
// bit-exact against a full ExtractInto recomputation of the sample window
// ending at that frame, for arbitrary chunkings of the input stream.
func TestStreamerMatchesFullRecompute(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		for ci, cfg := range streamerConfigs() {
			fe, err := NewFrontend(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStreamer(fe)
			r := rand.New(rand.NewSource(int64(100 + ci)))
			utt := cfg.UtteranceSamples()
			var history []int16
			dst := make([]uint8, cfg.FingerprintLen())
			full := make([]uint8, cfg.FingerprintLen())
			checks := 0
			// Enough stream to pass warm-up and then slide well past one ring
			// revolution.
			for len(history) < 3*utt {
				chunk := randUtterance(r, 1+r.Intn(2*cfg.StrideSamples))
				history = append(history, chunk...)
				st.Push(chunk)
				if !st.Ready() {
					if st.Fingerprint(dst) != nil {
						t.Fatalf("config %d: fingerprint before ready", ci)
					}
					continue
				}
				start := (st.Frames() - cfg.NumFrames) * cfg.StrideSamples
				want := fe.ExtractInto(full, history[start:start+utt])
				got := st.Fingerprint(dst)
				if !bytes.Equal(got, want) {
					t.Fatalf("config %d: fingerprint diverges from full recomputation at frame %d", ci, st.Frames())
				}
				checks++
			}
			if checks == 0 {
				t.Fatalf("config %d: equivalence never checked", ci)
			}
		}
	})
}

// TestStreamerFrameAccounting: frame completion must track the closed-form
// count floor((S-window)/stride)+1 for S pushed samples.
func TestStreamerFrameAccounting(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		cfg := DefaultFrontend()
		fe, err := NewFrontend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := NewStreamer(fe)
		r := rand.New(rand.NewSource(7))
		pushed := 0
		for pushed < 4*cfg.UtteranceSamples() {
			chunk := randUtterance(r, 1+r.Intn(997))
			got := st.Push(chunk)
			pushed += len(chunk)
			want := 0
			if pushed >= cfg.WindowSamples {
				want = (pushed-cfg.WindowSamples)/cfg.StrideSamples + 1
			}
			if st.Frames() != want {
				t.Fatalf("after %d samples: %d frames, want %d", pushed, st.Frames(), want)
			}
			if got < 0 || st.NeedSamples() <= 0 || st.NeedSamples() > cfg.WindowSamples+cfg.StrideSamples {
				t.Fatalf("after %d samples: implausible Push return %d / NeedSamples %d", pushed, got, st.NeedSamples())
			}
		}
	})
}

// TestStreamerNeedSamples: pushing exactly NeedSamples completes exactly one
// frame, the invariant core.Stream.Submit relies on for per-hop submission.
func TestStreamerNeedSamples(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		for ci, cfg := range streamerConfigs() {
			fe, err := NewFrontend(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStreamer(fe)
			r := rand.New(rand.NewSource(int64(ci)))
			for i := 0; i < 2*cfg.NumFrames+3; i++ {
				n := st.NeedSamples()
				if done := st.Push(randUtterance(r, n)); done != 1 {
					t.Fatalf("config %d step %d: Push(NeedSamples=%d) completed %d frames, want 1", ci, i, n, done)
				}
			}
		}
	})
}

// TestStreamerReset: a reset streamer replays the stream from scratch.
func TestStreamerReset(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		cfg := DefaultFrontend()
		fe, err := NewFrontend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := NewStreamer(fe)
		r := rand.New(rand.NewSource(11))
		stream := randUtterance(r, cfg.UtteranceSamples()+3*cfg.StrideSamples)
		st.Push(stream)
		first := st.Fingerprint(nil)
		if first == nil {
			t.Fatal("not ready after full utterance")
		}
		st.Reset()
		if st.Frames() != 0 || st.Ready() {
			t.Fatal("reset did not clear frame state")
		}
		if st.Fingerprint(nil) != nil {
			t.Fatal("fingerprint available right after reset")
		}
		st.Push(stream)
		if !bytes.Equal(st.Fingerprint(nil), first) {
			t.Fatal("replay after reset diverged")
		}
	})
}

// TestStreamerSteadyStateZeroAlloc is the ISSUE acceptance criterion: in
// steady state, one hop of Push plus the Fingerprint assembly performs no
// heap allocation.
func TestStreamerSteadyStateZeroAlloc(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		cfg := DefaultFrontend()
		fe, err := NewFrontend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := NewStreamer(fe)
		r := rand.New(rand.NewSource(13))
		st.Push(randUtterance(r, cfg.UtteranceSamples()))
		hop := randUtterance(r, cfg.StrideSamples)
		dst := make([]uint8, cfg.FingerprintLen())
		allocs := testing.AllocsPerRun(10, func() {
			st.Push(hop)
			st.Fingerprint(dst)
		})
		if allocs != 0 {
			t.Fatalf("steady-state hop allocates %v times per run, want 0", allocs)
		}
	})
}

// TestHopCycles: the steady-state hop must be modeled at the per-frame share
// of a full extraction.
func TestHopCycles(t *testing.T) {
	fe, err := NewFrontend(DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fe.HopCycles(), fe.Cycles()/uint64(fe.Config().NumFrames); got != want {
		t.Fatalf("HopCycles = %d, want %d", got, want)
	}
}
