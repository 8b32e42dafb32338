package dsp

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cpufeat"
	"repro/internal/hw"
)

// FrontendConfig describes the fingerprint extractor. DefaultFrontend
// matches the paper exactly.
type FrontendConfig struct {
	SampleRate    int // Hz
	WindowSamples int // samples per analysis window (30 ms)
	StrideSamples int // hop between windows (20 ms)
	FFTSize       int // power of two ≥ WindowSamples
	NumBins       int // spectrum bins consumed (256)
	AvgWidth      int // neighboring bins averaged per feature (6)
	NumFrames     int // frames per utterance (49)
}

// DefaultFrontend returns the paper's configuration: 16 kHz audio, 30 ms
// windows with 20 ms shift, 512-point fixed-point FFT (256 usable bins),
// 6-bin averaging → 43 features, 49 frames.
func DefaultFrontend() FrontendConfig {
	return FrontendConfig{
		SampleRate:    16000,
		WindowSamples: 480,
		StrideSamples: 320,
		FFTSize:       512,
		NumBins:       256,
		AvgWidth:      6,
		NumFrames:     49,
	}
}

// NumFeatures returns features per frame (ceil(NumBins/AvgWidth): 43).
func (c FrontendConfig) NumFeatures() int {
	return (c.NumBins + c.AvgWidth - 1) / c.AvgWidth
}

// FingerprintLen returns the flattened fingerprint length (49×43 = 2107).
func (c FrontendConfig) FingerprintLen() int {
	return c.NumFrames * c.NumFeatures()
}

// UtteranceSamples returns the number of samples consumed per utterance.
func (c FrontendConfig) UtteranceSamples() int {
	return (c.NumFrames-1)*c.StrideSamples + c.WindowSamples
}

func (c FrontendConfig) validate() error {
	if c.FFTSize <= 0 || c.FFTSize&(c.FFTSize-1) != 0 {
		return fmt.Errorf("dsp: FFT size %d not a power of two", c.FFTSize)
	}
	if c.WindowSamples > c.FFTSize {
		return fmt.Errorf("dsp: window %d exceeds FFT size %d", c.WindowSamples, c.FFTSize)
	}
	if c.NumBins > c.FFTSize/2 {
		return fmt.Errorf("dsp: %d bins exceed FFT capacity %d", c.NumBins, c.FFTSize/2)
	}
	if c.AvgWidth <= 0 || c.StrideSamples <= 0 || c.NumFrames <= 0 || c.NumBins <= 0 {
		return fmt.Errorf("dsp: non-positive frontend geometry")
	}
	if w := min(c.AvgWidth, c.NumBins); w > maxAvgWidth {
		return fmt.Errorf("dsp: %d bins per feature exceed %d", w, maxAvgWidth)
	}
	return nil
}

// Frontend extracts uint8 spectrogram fingerprints from PCM16 audio with
// fixed-point arithmetic throughout, as a microcontroller build would. All
// per-utterance state is preallocated at construction: the Q15 Hann window,
// the FFT scratch, the twiddle and bit-reversal tables for the configured
// FFT size, and the feature bin sub-ranges of the log-compression stage.
// ExtractInto is therefore allocation-free; a frontend is cheap to keep per
// worker.
//
// The spectrum comes from the real-input FFT: the FFTSize real samples run
// through an FFTSize/2-point complex FFT plus a split post-pass, halving
// the butterfly and twiddle-load count per frame versus the full complex
// transform the frontend originally used. The output scale (1/FFTSize) is
// unchanged, so feature values match the old path within the fixed-point
// rounding tolerance (the split post-pass rounds where the discarded
// butterfly stage truncated — individual fingerprint bytes may differ by a
// least-significant step, never more). frameInto runs the whole chain as
// one fused kernel whose output is byte-identical to the unfused pipeline
// (rfftFixed, integer averaging, float logCompress); on amd64 with AVX2 its
// gather, stage pairs and unzip run as assembly, bit-exact with the Go
// loops that run everywhere else.
type Frontend struct {
	cfg FrontendConfig
	// window is the Q15 Hann window zero-padded to FFTSize, so the gather
	// can multiply every sample slot of the frame without a length test.
	window []int32
	// frame is the zeroed FFTSize staging buffer for frames that run past
	// the end of the input; only its first WindowSamples are ever written.
	frame []int16
	z     [][2]int32 // packed complex FFT scratch, FFTSize/2 {Re, Im}
	pow   []uint64   // fused per-bin spectral powers, FFTSize/2
	// base[q] is the sample offset of the first input of gather block q:
	// twice the bit-reversed block index (see gatherFrame).
	base []int32
	// gwin is the window in the AVX2 gather's order: for each step of eight
	// blocks, the (w[i], w[i+1]) int16 pairs of the four inputs of each
	// block, input-major. Built only where that kernel can run
	// (cpufeat.HasAVX2) and the packed FFT has at least eight blocks.
	gwin []uint32
	// stages are the interleaved twiddles of the generic butterfly stages
	// (size 8 up to FFTSize/2); post holds W_FFTSize^k for the unzip.
	stages [][][2]int32
	post   [][2]int32
	// binLo/binHi are the precomputed [lo, hi) spectrum sub-range of each
	// feature (the final feature may cover fewer than AvgWidth bins), and
	// recip the reciprocal of its width for binAverage.
	binLo, binHi []int
	recip        []uint64
}

// NewFrontend builds a frontend; nil-safe defaults come from
// DefaultFrontend.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	features := cfg.NumFeatures()
	m := cfg.FFTSize / 2
	half, full := twiddlesFor(m), twiddlesFor(cfg.FFTSize)
	f := &Frontend{
		cfg:    cfg,
		window: make([]int32, cfg.FFTSize),
		frame:  make([]int16, cfg.FFTSize),
		z:      make([][2]int32, m),
		pow:    make([]uint64, m),
		base:   make([]int32, m/4),
		post:   make([][2]int32, m),
		binLo:  make([]int, features),
		binHi:  make([]int, features),
		recip:  make([]uint64, features),
	}
	for i := range cfg.WindowSamples {
		// Hann window in Q15; a one-sample window is its peak (the
		// formula would divide by zero).
		w := 1.0
		if cfg.WindowSamples > 1 {
			w = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(cfg.WindowSamples-1))
		}
		f.window[i] = int32(math.Round(w * 32767))
	}
	for q := range f.base {
		f.base[q] = 2 * half.perm[4*q]
	}
	if nb := len(f.base); cpufeat.HasAVX2() && nb >= 8 {
		qn := int32(cfg.FFTSize / 4)
		f.gwin = make([]uint32, 4*nb)
		for q, b := range f.base {
			for x, off := range [4]int32{0, 2 * qn, qn, 3 * qn} {
				i := b + off
				f.gwin[q/8*32+x*8+q%8] = uint32(f.window[i]) | uint32(f.window[i+1])<<16
			}
		}
	}
	for s := range half.stageCos {
		tw := make([][2]int32, len(half.stageCos[s]))
		for k := range tw {
			tw[k] = [2]int32{half.stageCos[s][k], half.stageSin[s][k]}
		}
		f.stages = append(f.stages, tw)
	}
	for k := range f.post {
		f.post[k] = [2]int32{full.cos[k], full.sin[k]}
	}
	for feat := 0; feat < features; feat++ {
		lo := feat * cfg.AvgWidth
		hi := lo + cfg.AvgWidth
		if hi > cfg.NumBins {
			hi = cfg.NumBins
		}
		f.binLo[feat], f.binHi[feat] = lo, hi
		f.recip[feat] = binReciprocal(hi - lo)
	}
	return f, nil
}

// Config returns the frontend configuration.
func (f *Frontend) Config() FrontendConfig { return f.cfg }

// Extract computes the fingerprint of a 1 s utterance. Input shorter than
// UtteranceSamples is zero-padded; longer input is truncated. The returned
// slice has FingerprintLen() elements in frame-major order.
func (f *Frontend) Extract(samples []int16) []uint8 {
	return f.ExtractInto(make([]uint8, f.cfg.FingerprintLen()), samples)
}

// ExtractInto is Extract writing into caller-owned storage: dst is resliced
// to FingerprintLen() when its capacity suffices (the zero-allocation hot
// path) and reallocated otherwise. It returns the fingerprint slice.
func (f *Frontend) ExtractInto(dst []uint8, samples []int16) []uint8 {
	cfg := f.cfg
	features := cfg.NumFeatures()
	if n := cfg.FingerprintLen(); cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]uint8, n)
	}
	for frame := 0; frame < cfg.NumFrames; frame++ {
		f.frameInto(dst[frame*features:(frame+1)*features], samples, frame*cfg.StrideSamples)
	}
	return dst
}

// frameInto computes the NumFeatures() feature values of the single analysis
// window starting at sample offset start, writing them into dst. Samples
// beyond len(samples) are treated as zeros (the utterance-tail padding).
// This is the shared per-frame kernel of ExtractInto and Streamer.Push, so
// streamed fingerprints are bit-exact against full recomputation.
//
// The kernel is fused end to end: the window multiply happens inside the
// bit-reversed gather, which also runs the first two butterfly stages in
// registers (gatherFrame); the remaining stages run as radix-2² pairs
// (fftStagePairs); the real-FFT unzip squares each bin while it is in
// registers (unzipPower); the bin average is a reciprocal multiply
// (binAverage); and log compression is an integer table lookup
// (logCompressFixed). The first three stages have an AVX2 kernel picked by
// useAVX2 (frame_avx2_amd64.s). The result is byte-identical to the
// unfused pipeline — window pack, rfftFixed, integer averaging, float
// logCompress (TestFrontendFusedEquivalence, FuzzFrontendFrame).
func (f *Frontend) frameInto(dst []uint8, samples []int16, start int) {
	frame := f.frame
	if n := len(frame); start <= len(samples)-n {
		frame = samples[start : start+n]
	} else {
		// The frame runs past the end of the input: stage what is there
		// through the zeroed scratch. The padded window is zero beyond
		// WindowSamples, so only that span is ever written or cleared.
		c := 0
		if start < len(samples) {
			c = copy(frame[:f.cfg.WindowSamples], samples[start:])
		}
		clear(frame[c:f.cfg.WindowSamples])
	}
	gatherFrame(f.z, frame, f.window, f.base, f.gwin)
	fftStagePairs(f.z, f.stages)
	unzipPower(f.z, f.post, f.pow)
	pw := f.pow
	for feat, rc := range f.recip {
		lo, hi := f.binLo[feat], f.binHi[feat]
		var acc uint64
		if lo > hi || hi > len(pw) {
			continue
		}
		for _, p := range pw[lo:hi] {
			acc += p
		}
		dst[feat] = logCompressFixed(binAverage(acc, rc))
	}
}

// maxAvgWidth bounds the bins averaged into one feature so that binAverage
// is exact (see there).
const maxAvgWidth = 1 << 16

// binReciprocal is the binAverage multiplier for a feature of d bins,
// floor((2^64-1)/d).
func binReciprocal(d int) uint64 { return math.MaxUint64 / uint64(d) }

// binAverage returns acc/d, the integer mean power of a feature of d bins,
// without a divide: the high word of (acc+1)·binReciprocal(d).
//
// Exactness: write binReciprocal(d)·d = 2^64 - c with 1 ≤ c ≤ d, and
// acc = q·d + t with 0 ≤ t < d. The product's high word is the floor of
// q + (t+1)/d - (acc+1)·c/(d·2^64), which is below q+1 and at least q
// whenever (acc+1)·d ≤ 2^64 (then (acc+1)·c ≤ 2^64 ≤ (t+1)·2^64). Every
// spectral power is |X|² with |X| at most about 2^14·√2, so below 2^30 and
// certainly below 2^32; a feature of d ≤ maxAvgWidth bins therefore has
// acc+1 ≤ d·2^32 and (acc+1)·d ≤ d²·2^32 ≤ 2^64 (TestBinAverageExact).
func binAverage(acc, recip uint64) uint64 {
	hi, _ := bits.Mul64(acc+1, recip)
	return hi
}

// gatherFrame loads one FFTSize-sample frame into the packed complex FFT
// scratch z (len FFTSize/2) in bit-reversed order, multiplying each sample
// by the zero-padded Q15 window on the way in, and runs butterfly stages 1
// and 2 — whose twiddles are the exact 1 and -i — in registers before the
// single store. Sample 2j is Re and 2j+1 is Im of packed point j, with the
// reference pack's rounding, int32(s·w/2)>>15 (the product fits in int32).
//
// With m = len(z), the four outputs 4q..4q+3 of block q are packed points
// B, B+m/2, B+m/4 and B+3m/4 (B the (log2 m - 2)-bit reversal of q), so
// their samples sit at one offset base[q] = 2B within each quarter of the
// frame. Indices are masked with len(frame)-1 (a no-op on in-range values)
// so the data-dependent loads carry no bounds checks (make bce-check).
//
// Under useAVX2, with the window pairs gwin that NewFrontend lays out for
// eight or more blocks, gatherFrameAVX2 runs eight blocks per step: a
// VPGATHERDD per quarter fetches the (s[i], s[i+1]) pairs, VPMADDWD
// against the pair with one window half masked off forms each s·w, and
// (p + sign(p)) >> 17 is the truncating /2 followed by the two shifts.
func gatherFrame(z [][2]int32, frame []int16, win []int32, base []int32, gwin []uint32) {
	if len(win) < len(frame) || len(frame) < 2 {
		panic("dsp: gatherFrame operand lengths")
	}
	if useAVX2 && len(gwin) > 0 {
		if len(gwin) != 4*len(base) || len(z) < len(gwin) || len(frame) != 2*len(gwin) {
			panic("dsp: gatherFrame operand lengths")
		}
		gatherFrameAVX2(z, frame, gwin, base)
		return
	}
	win = win[:len(frame)]
	mask := len(frame) - 1
	if len(z) < 4 {
		// FFTSize 2 and 4: the bit reversal is the identity, and FFTSize 4
		// has the single stage-1 butterfly.
		for p := range z {
			i, j := (2*p)&mask, (2*p+1)&mask
			z[p] = [2]int32{(int32(frame[i]) * win[i] / 2) >> 15, (int32(frame[j]) * win[j] / 2) >> 15}
		}
		if len(z) == 2 {
			ar, ai := z[0][0]>>1, z[0][1]>>1
			br, bi := z[1][0]>>1, z[1][1]>>1
			z[0] = [2]int32{ar + br, ai + bi}
			z[1] = [2]int32{ar - br, ai - bi}
		}
		return
	}
	qn := len(frame) / 4
	for q, zz := 0, z; q < len(base) && len(zz) >= 4; q, zz = q+1, zz[4:] {
		b := int(base[q])
		i0, i1, i2, i3 := b&mask, (b+2*qn)&mask, (b+qn)&mask, (b+3*qn)&mask
		j0, j1, j2, j3 := (i0+1)&mask, (i1+1)&mask, (i2+1)&mask, (i3+1)&mask
		// Windowed inputs, pre-halved for stage 1.
		r0, m0 := ((int32(frame[i0])*win[i0]/2)>>15)>>1, ((int32(frame[j0])*win[j0]/2)>>15)>>1
		r1, m1 := ((int32(frame[i1])*win[i1]/2)>>15)>>1, ((int32(frame[j1])*win[j1]/2)>>15)>>1
		r2, m2 := ((int32(frame[i2])*win[i2]/2)>>15)>>1, ((int32(frame[j2])*win[j2]/2)>>15)>>1
		r3, m3 := ((int32(frame[i3])*win[i3]/2)>>15)>>1, ((int32(frame[j3])*win[j3]/2)>>15)>>1
		// Stage 1 (W = 1) on (0, 1) and (2, 3), halved again for stage 2.
		ar, ai, br, bi := (r0+r1)>>1, (m0+m1)>>1, (r0-r1)>>1, (m0-m1)>>1
		cr, ci, dr, di := (r2+r3)>>1, (m2+m3)>>1, (r2-r3)>>1, (m2-m3)>>1
		// Stage 2: W = 1 on (0, 2); W = -i on (1, 3) rotates d to (di, -dr).
		zz[0] = [2]int32{ar + cr, ai + ci}
		zz[1] = [2]int32{br + di, bi - dr}
		zz[2] = [2]int32{ar - cr, ai - ci}
		zz[3] = [2]int32{br - di, bi + dr}
	}
}

// logCompress maps an averaged power value to a uint8 feature:
// min(255, round(8·log2(1+p))). The factor 8 spreads the fixed-point power
// range (≈2^31 max) over the full byte, the same role as TFLM's log-scale
// stage. This float form is the reference; the hot path uses
// logCompressFixed, which is exactly equal on every input by construction.
func logCompress(p uint64) uint8 {
	v := 8 * math.Log2(1+float64(p))
	if v > 255 {
		return 255
	}
	return uint8(math.Round(v))
}

// logThresholds[v] is the smallest power p with logCompress(p) ≥ v+1 (and
// MaxUint64 for v = 255, which is never exceeded). Built once by binary
// search against the float reference itself, so logCompressFixed inherits
// its exact rounding behavior — including any float64 quirks at the
// boundaries — rather than re-deriving the cut points analytically.
var logThresholds = func() *[256]uint64 {
	var t [256]uint64
	for v := 0; v < 255; v++ {
		// Invariant: logCompress(lo) ≤ v < logCompress(hi).
		lo, hi := uint64(0), uint64(1)<<40
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if logCompress(mid) <= uint8(v) {
				lo = mid
			} else {
				hi = mid
			}
		}
		t[v] = hi
	}
	t[255] = math.MaxUint64
	return &t
}()

// logStart[key] is logCompressFixed of the smallest power in bucket key —
// the number of logThresholds at or below it. The key of p is its
// (bit length, next 3 bits) bucket: values below 16 are their own bucket;
// above, s = bits.Len64(p)-4 and the key is 8·s + p>>s, where
// p>>s ∈ [8, 16) carries the leading one and the three bits after it.
// Keys are < 496.
var logStart = func() *[512]uint8 {
	var t [512]uint8
	for key := range 496 {
		lo := uint64(key)
		if key >= 16 {
			s := key>>3 - 1
			lo = uint64(key-8*s) << uint(s)
		}
		v := 0
		for v < 255 && logThresholds[v] <= lo {
			v++
		}
		t[key] = uint8(v)
	}
	return &t
}()

// logCompressFixed is logCompress as an integer threshold lookup: the
// (bit length, next 3 bits) bucket of p gives the byte of the bucket's
// smallest power, and a walk over logThresholds lands on the exact byte.
// A bucket spans at most a factor 9/8 in 1+p, i.e. 8·log2(9/8) < 2 output
// steps, so the walk is two branch-free threshold comparisons (the borrow
// of p - threshold is 0 exactly when p has reached it). No floating point,
// bit-identical to the reference on every uint64
// (TestLogCompressFixedMatches). The masked and uint8 indices make every
// table access in-bounds by type, so no bounds checks (make bce-check).
func logCompressFixed(p uint64) uint8 {
	s := max(bits.Len64(p)-4, 0)
	v := uint(logStart[(s<<3+int(p>>uint(s)))&511])
	_, b := bits.Sub64(p, logThresholds[uint8(v)], 0)
	v += 1 - uint(b)
	_, b = bits.Sub64(p, logThresholds[uint8(v)], 0)
	v += 1 - uint(b)
	// Only p = MaxUint64 reaches the 255 sentinel threshold and steps past.
	return uint8(min(v, 255))
}

// Cycles returns the cost of one full fingerprint extraction on a simulated
// core: window multiplies, the butterflies of the packed FFTSize/2-point
// FFT, the real-FFT split post-pass over the FFTSize/2 spectrum bins, and
// bin post-processing.
func (f *Frontend) Cycles() uint64 {
	cfg := f.cfg
	perFrame := uint64(cfg.WindowSamples)*2 + // window multiply + load
		ButterflyCount(cfg.FFTSize/2)*hw.CyclesPerButterfly +
		uint64(cfg.FFTSize/2)*hw.CyclesPerRFFTPostBin +
		uint64(cfg.NumBins)*hw.CyclesPerFeatureBin
	return perFrame * uint64(cfg.NumFrames)
}
