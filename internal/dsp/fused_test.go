package dsp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestRFFTPowerMatchesRFFT: the fused power post-pass (unzipPower) must be
// bit-identical to running rfftFixed and squaring its spectrum — the fusion
// only skips the spectrum store/re-load, never the arithmetic. Randomized
// Q15-range inputs over every packed size the frontend could configure.
func TestRFFTPowerMatchesRFFT(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(71))
		for _, m := range []int{1, 2, 4, 8, 16, 64, 256, 512} {
			half, full := twiddlesFor(m), twiddlesFor(2*m)
			post := make([][2]int32, m)
			for k := range post {
				post[k] = [2]int32{full.cos[k], full.sin[k]}
			}
			for trial := 0; trial < 20; trial++ {
				re := make([]int32, m)
				im := make([]int32, m)
				for i := range re {
					re[i] = int32(r.Intn(65535) - 32767)
					im[i] = int32(r.Intn(65535) - 32767)
				}
				re2 := append([]int32(nil), re...)
				im2 := append([]int32(nil), im...)
				rfftFixed(re2, im2, half, full)
				fftFixed(re, im, half)
				z := make([][2]int32, m)
				for k := range z {
					z[k] = [2]int32{re[k], im[k]}
				}
				pow := make([]uint64, m)
				unzipPower(z, post, pow)
				for k := 0; k < m; k++ {
					xr, xi := int64(re2[k]), int64(im2[k])
					want := uint64(xr*xr + xi*xi)
					if pow[k] != want {
						t.Fatalf("m=%d trial=%d bin %d: fused power %d != squared spectrum %d",
							m, trial, k, pow[k], want)
					}
				}
			}
		}
	})
}

// TestLogCompressFixedMatches: the bucketed threshold lookup must equal the
// float reference on every input class — randomized values across all
// magnitudes, every threshold boundary ±1, every (bit length, next 3 bits)
// bucket boundary ±1 (the last value of a bucket is where its two-step walk
// is longest), and the extremes.
func TestLogCompressFixedMatches(t *testing.T) {
	check := func(p uint64) {
		t.Helper()
		if got, want := logCompressFixed(p), logCompress(p); got != want {
			t.Fatalf("logCompressFixed(%d) = %d, want %d", p, got, want)
		}
	}
	around := func(p uint64) {
		t.Helper()
		if p > 0 {
			check(p - 1)
		}
		check(p)
		if p < math.MaxUint64 {
			check(p + 1)
		}
	}
	check(0)
	check(1)
	check(math.MaxUint64)
	for v := 0; v < 256; v++ {
		around(logThresholds[v])
	}
	// Bucket starts: every value below 16 is its own bucket; above, the
	// buckets start at top<<s for the 4-bit prefixes top = 8..15.
	for p := uint64(0); p < 16; p++ {
		around(p)
	}
	for s := 1; s <= 60; s++ {
		for top := uint64(8); top < 16; top++ {
			around(top << s)
		}
	}
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20000; trial++ {
		check(r.Uint64() >> uint(r.Intn(64)))
	}
}

// unfusedFrame recomputes one analysis frame the pre-fusion way — window
// pack, rfftFixed spectrum, square/average in integers, float logCompress —
// as the reference for the fused frame kernel.
func unfusedFrame(f *Frontend, dst []uint8, samples []int16, start int) {
	cfg := f.cfg
	re := make([]int32, cfg.FFTSize/2)
	im := make([]int32, cfg.FFTSize/2)
	n := cfg.WindowSamples
	if rem := len(samples) - start; rem < n {
		n = rem
	}
	if n < 0 {
		n = 0
	}
	for i := 0; i < n; i++ {
		w := int32((int64(samples[start+i]) * int64(f.window[i]) / 2) >> 15)
		if i&1 == 0 {
			re[i>>1] = w
		} else {
			im[i>>1] = w
		}
	}
	rfftFixed(re, im, twiddlesFor(cfg.FFTSize/2), twiddlesFor(cfg.FFTSize))
	for feat := range f.binLo {
		lo, hi := f.binLo[feat], f.binHi[feat]
		var acc uint64
		for k := lo; k < hi; k++ {
			xr, xi := int64(re[k]), int64(im[k])
			acc += uint64(xr*xr + xi*xi)
		}
		dst[feat] = logCompress(acc / uint64(hi-lo))
	}
}

// TestFrontendFusedEquivalence: the fused frame kernel (gatherFrame,
// fftStagePairs, unzipPower, logCompressFixed) must produce byte-identical
// fingerprints to the unfused pipeline, across randomized utterances
// including short (zero-padded) and empty input.
func TestFrontendFusedEquivalence(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(73))
		f, err := NewFrontend(DefaultFrontend())
		if err != nil {
			t.Fatal(err)
		}
		cfg := f.Config()
		features := cfg.NumFeatures()
		lengths := []int{0, 1, cfg.WindowSamples - 1, cfg.WindowSamples,
			cfg.UtteranceSamples() / 2, cfg.UtteranceSamples() - 1, cfg.UtteranceSamples()}
		for trial, n := range lengths {
			samples := make([]int16, n)
			for i := range samples {
				samples[i] = int16(r.Intn(65536) - 32768)
			}
			got := f.Extract(samples)
			want := make([]uint8, features)
			for frame := 0; frame < cfg.NumFrames; frame++ {
				unfusedFrame(f, want, samples, frame*cfg.StrideSamples)
				for feat := 0; feat < features; feat++ {
					if got[frame*features+feat] != want[feat] {
						t.Fatalf("len=%d trial=%d frame=%d feat=%d: fused %d != unfused %d",
							n, trial, frame, feat, got[frame*features+feat], want[feat])
					}
				}
			}
		}
	})
}

// sweepConfigs are frontend geometries over every FFT size from 2 to 1024,
// each with an odd window below the FFT size and one equal to it: packed
// FFTs of 1 and 2 points (no generic stage), and odd and even counts of
// generic stages for the radix-2² pairing.
func sweepConfigs() []FrontendConfig {
	var cfgs []FrontendConfig
	for n := 2; n <= 1024; n *= 2 {
		for _, win := range []int{n - 1, n} {
			cfgs = append(cfgs, FrontendConfig{
				SampleRate:    16000,
				WindowSamples: win,
				StrideSamples: max(1, 2*win/3),
				FFTSize:       n,
				NumBins:       n / 2,
				AvgWidth:      3,
				NumFrames:     4,
			})
		}
	}
	return cfgs
}

// TestFrontendFFTSizeSweep: for every sweep geometry, ExtractInto must be
// byte-identical to the unfused reference frame by frame on full-length,
// zero-padded short and over-long input. (TestStreamerMatchesFullRecompute
// runs the sweep geometries through the Streamer.)
func TestFrontendFFTSizeSweep(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(74))
		for _, cfg := range sweepConfigs() {
			f, err := NewFrontend(cfg)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			features := cfg.NumFeatures()
			utt := cfg.UtteranceSamples()
			want := make([]uint8, features)
			for _, n := range []int{utt, utt / 3, utt + cfg.FFTSize + 5} {
				samples := randUtterance(r, n)
				got := f.Extract(samples)
				for frame := 0; frame < cfg.NumFrames; frame++ {
					unfusedFrame(f, want, samples, frame*cfg.StrideSamples)
					if !bytes.Equal(got[frame*features:(frame+1)*features], want) {
						t.Fatalf("FFT %d window %d len %d frame %d: fused %v != unfused %v",
							cfg.FFTSize, cfg.WindowSamples, n, frame, got[frame*features:(frame+1)*features], want)
					}
				}
			}
		}
	})
}

// FuzzFrontendFrame checks the fused frame kernel against the unfused
// reference (unfusedFrame: rfftFixed, integer averaging, float logCompress)
// on arbitrary PCM16 input (little-endian byte pairs, a trailing odd byte
// ignored), at any start offset — including frames that run past the end
// of the input — on the paper geometry and two sweep geometries with odd
// and even generic stage counts. The checked-in corpus holds all-±32768,
// silence, a single impulse, and odd-length inputs shorter than one window.
func FuzzFrontendFrame(f *testing.F) {
	geoms := []FrontendConfig{DefaultFrontend()}
	for _, cfg := range sweepConfigs() {
		if cfg.FFTSize == 64 && cfg.WindowSamples < 64 || cfg.FFTSize == 128 && cfg.WindowSamples == 128 {
			geoms = append(geoms, cfg)
		}
	}
	fes := make([]*Frontend, len(geoms))
	for i, cfg := range geoms {
		fe, err := NewFrontend(cfg)
		if err != nil {
			f.Fatal(err)
		}
		fes[i] = fe
	}
	f.Fuzz(func(t *testing.T, data []byte, start uint16, geom uint8) {
		forEachFrameKernel(t, func(t *testing.T) {
			fe := fes[int(geom)%len(fes)]
			samples := make([]int16, len(data)/2)
			for i := range samples {
				samples[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
			}
			// Offsets up to one FFT past the end cover every staging case.
			off := int(start) % (len(samples) + fe.cfg.FFTSize + 1)
			got := make([]uint8, fe.cfg.NumFeatures())
			want := make([]uint8, fe.cfg.NumFeatures())
			fe.frameInto(got, samples, off)
			unfusedFrame(fe, want, samples, off)
			if !bytes.Equal(got, want) {
				t.Fatalf("geometry %d, %d samples, start %d: fused %v != unfused %v",
					int(geom)%len(fes), len(samples), off, got, want)
			}
		})
	})
}
