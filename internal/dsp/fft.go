// Package dsp implements the audio feature frontend of the paper's keyword
// spotter (§VI): "Features are computed using a 256 bin fixed point FFT
// across 30 ms windows (20 ms shift), averaging 6 neighboring bins,
// resulting in 43 values per frame. The 49 frames for each recording are
// concatenated, forming a fixed 49 × 43 compressed spectrogram
// ('fingerprint') per utterance."
//
// The package provides a fixed-point radix-2 FFT (the kind that runs on
// microcontrollers without an FPU), a real-input variant that packs the
// samples into a half-size complex FFT plus a split post-pass (the audio
// frames are real, so half the butterflies of a full complex transform are
// wasted on a zero imaginary part), a float64 reference FFT used to bound
// their error in tests, and the fingerprint extractor, whose per-frame hot
// path runs the real-input transform as one fused kernel bit-identical to
// the unfused one.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/cpufeat"
)

// FFTFloat computes the in-place radix-2 decimation-in-time FFT of the
// complex sequence (re, im). len(re) must be a power of two. It is the
// reference implementation for testing the fixed-point path.
func FFTFloat(re, im []float64) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("dsp: re/im length mismatch %d/%d", n, len(im))
	}
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT size %d not a power of two", n)
	}
	bitReverse(re, im)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				ang := step * float64(k)
				wr, wi := math.Cos(ang), math.Sin(ang)
				i, j := start+k, start+k+half
				tr := wr*re[j] - wi*im[j]
				ti := wr*im[j] + wi*re[j]
				re[j] = re[i] - tr
				im[j] = im[i] - ti
				re[i] += tr
				im[i] += ti
			}
		}
	}
	return nil
}

// bitReverse performs the in-place bit-reversal reorder shared by every FFT
// in this package; the element type only has to be swappable.
func bitReverse[T int32 | float64](re, im []T) {
	n := len(re)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// bitReversePerm is bitReverse driven by a precomputed permutation table, so
// the hot loop performs no bits.Reverse64 work. The swap targets are
// data-dependent (the permutation itself), so its bounds checks are
// irreducible; the function is kept out of line so they stay attributed here
// and the fftFixed stage sweep remains clean under make bce-check.
//
//go:noinline
func bitReversePerm(re, im []int32, perm []int32) {
	for i, j := range perm {
		if int(j) > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// useAVX2 selects the frame kernel of gatherFrame, fftStagePairs and
// unzipPower: the AVX2 assembly (frame_avx2_amd64.s) when the CPU and OS
// support AVX2 (cpufeat.HasAVX2), which is never the case off amd64, and
// the Go loops otherwise. Read once at init; tests flip it to run both kernels in one
// binary.
var useAVX2 = cpufeat.HasAVX2()

// twiddle tables for the fixed-point FFTs, Q15, cached per size, along with
// the bit-reversal permutation of that size. The cache is a sync.Map so
// concurrent FFTs (one per pipeline worker) hit a lock-free read path;
// frontends additionally pin their tables at construction and bypass the
// cache entirely.
var twCache sync.Map // int → *twiddles

type twiddles struct {
	cos []int32 // Q15
	sin []int32 // Q15
	// perm[i] is the bit-reversed index of i, precomputed so the per-call
	// reorder is a table walk instead of bits.Reverse64 arithmetic.
	perm []int32
	// stageCos/stageSin[s] are the contiguous per-stage twiddle tables of
	// butterfly stage size 8<<s (the generic stages of fftFixed): entry k is
	// cos/sin[k·(n/size)]. Walking them at stride 1 replaces the mul-indexed
	// strided reads of the shared table — sequential loads the prove pass
	// can bound, and better locality for the small early stages.
	stageCos [][]int32
	stageSin [][]int32
}

func computeTwiddles(n int) *twiddles {
	tw := &twiddles{cos: make([]int32, n/2), sin: make([]int32, n/2), perm: make([]int32, n)}
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw.cos[k] = int32(math.Round(math.Cos(ang) * 32767))
		tw.sin[k] = int32(math.Round(math.Sin(ang) * 32767))
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range tw.perm {
		tw.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	for size := 8; size <= n; size <<= 1 {
		half, stride := size/2, n/size
		cos, sin := make([]int32, half), make([]int32, half)
		for k := 0; k < half; k++ {
			cos[k], sin[k] = tw.cos[k*stride], tw.sin[k*stride]
		}
		tw.stageCos = append(tw.stageCos, cos)
		tw.stageSin = append(tw.stageSin, sin)
	}
	return tw
}

func twiddlesFor(n int) *twiddles {
	if v, ok := twCache.Load(n); ok {
		return v.(*twiddles)
	}
	v, _ := twCache.LoadOrStore(n, computeTwiddles(n))
	return v.(*twiddles)
}

// FFTFixed computes an in-place fixed-point radix-2 FFT. Inputs are Q15-ish
// int32 values (|x| ≤ 32767 recommended); every butterfly stage scales by
// 1/2 so intermediate values never overflow, for a total output scaling of
// 1/n relative to the mathematical DFT. This mirrors the scaling scheme of
// the CMSIS/KissFFT fixed-point transforms that TFLM's micro_features use.
func FFTFixed(re, im []int32) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("dsp: re/im length mismatch %d/%d", n, len(im))
	}
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT size %d not a power of two", n)
	}
	fftFixed(re, im, twiddlesFor(n))
	return nil
}

// fftFixed is the FFTFixed core with a caller-provided twiddle table; the
// frontend precomputes its table once so the hot loop never touches the
// shared cache.
func fftFixed(re, im []int32, tw *twiddles) {
	n := len(re)
	if len(im) < n {
		panic("dsp: fftFixed im shorter than re")
	}
	bitReversePerm(re, im, tw.perm)
	// The first two stages use only the twiddles 1 and -i, which are exact
	// in any fixed-point format — specializing them skips the Q15 rounding
	// multiplies (and their 1-LSB error) on a quarter of all butterflies.
	// Both walk the arrays by reslicing fixed-size blocks so every access is
	// provably in range (make bce-check).
	for rr, ii := re, im; len(rr) >= 2 && len(ii) >= 2; rr, ii = rr[2:], ii[2:] {
		ar, ai := rr[0]>>1, ii[0]>>1
		br, bi := rr[1]>>1, ii[1]>>1
		rr[0], ii[0] = ar+br, ai+bi
		rr[1], ii[1] = ar-br, ai-bi
	}
	for rr, ii := re, im; len(rr) >= 4 && len(ii) >= 4; rr, ii = rr[4:], ii[4:] {
		ar, ai := rr[0]>>1, ii[0]>>1
		br, bi := rr[2]>>1, ii[2]>>1
		rr[0], ii[0] = ar+br, ai+bi
		rr[2], ii[2] = ar-br, ai-bi
		// k = 1: W = -i rotates (br, bi) to (bi, -br).
		ar, ai = rr[1]>>1, ii[1]>>1
		br, bi = rr[3]>>1, ii[3]>>1
		rr[1], ii[1] = ar+bi, ai-br
		rr[3], ii[3] = ar-bi, ai+br
	}
	// Generic stages, driven by the per-stage contiguous twiddle tables:
	// stage s has butterfly size 2·len(stageCos[s]), so every block bound
	// derives from slice lengths (half = len(cw), size = half+half) — terms
	// the prove pass can order without overflow caveats. Each block is split
	// into lower/upper half-slices walked by one index k, and the blocks
	// themselves advance by reslicing; the whole sweep carries no bounds
	// checks (make bce-check).
	sc, ss := tw.stageCos, tw.stageSin
	for s := 0; s < len(sc) && s < len(ss); s++ {
		cw, sw := sc[s], ss[s]
		half := len(cw)
		if half == 0 || half > n>>1 || len(sw) != half {
			break
		}
		rr, ii := re, im
		for len(rr) >= half && len(ii) >= half {
			al, bl := rr[:half], ii[:half]
			rr, ii = rr[half:], ii[half:]
			if len(rr) < half || len(ii) < half {
				break
			}
			ah, bh := rr[:half], ii[:half]
			rr, ii = rr[half:], ii[half:]
			for k := 0; k < len(al) && k < len(ah) && k < len(bl) && k < len(bh) && k < len(cw) && k < len(sw); k++ {
				wr := cw[k]
				wi := sw[k]
				// Complex multiply in Q15 with rounding.
				tr := int32((int64(wr)*int64(ah[k]) - int64(wi)*int64(bh[k]) + 16384) >> 15)
				ti := int32((int64(wr)*int64(bh[k]) + int64(wi)*int64(ah[k]) + 16384) >> 15)
				// Stage scaling by 1/2 keeps magnitudes bounded.
				ai := al[k] >> 1
				bi := bl[k] >> 1
				tr >>= 1
				ti >>= 1
				ah[k] = ai - tr
				bh[k] = bi - ti
				al[k] = ai + tr
				bl[k] = bi + ti
			}
		}
	}
}

// RFFTFixed computes spectrum bins 0..n/2-1 of the real sequence x
// (len n, a power of two ≥ 2) with the same 1/n output scaling as an
// n-point FFTFixed, writing into re/im (each at least n/2 long, resliced
// to exactly n/2). It packs x into an n/2-point complex FFT (even samples
// real, odd samples imaginary) and unzips the half-spectra in a split
// post-pass — about half the butterflies and twiddle loads of the full
// complex transform. Bin n/2 (the Nyquist bin) is not emitted; the
// frontend's NumBins ≤ n/2 bins never read it.
func RFFTFixed(x []int32, re, im []int32) error {
	n := len(x)
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: real-FFT size %d not a power of two ≥ 2", n)
	}
	m := n / 2
	if len(re) < m || len(im) < m {
		return fmt.Errorf("dsp: rfft output length %d/%d below %d", len(re), len(im), m)
	}
	re, im = re[:m], im[:m]
	for i := 0; i < m; i++ {
		re[i] = x[2*i]
		im[i] = x[2*i+1]
	}
	rfftFixed(re, im, twiddlesFor(m), twiddlesFor(n))
	return nil
}

// rfftFixed is the real-FFT core over already packed data: re/im hold the
// m = n/2 even/odd samples, half is the m-point twiddle table, full the
// n-point table whose first m entries supply the post-pass rotations. On
// return re/im hold spectrum bins 0..m-1 of the length-n real transform.
//
// Scaling scheme: the packed m-point fftFixed scales by 1/m; the split
// post-pass X[k] = (E[k] + W_n^k·O[k]) halves once more with rounding, for
// a total 1/n — bit-compatible in scale with the full-size FFTFixed path
// it replaces, so fingerprint features stay within the fixed-point
// tolerance documented in the frontend.
func rfftFixed(re, im []int32, half, full *twiddles) {
	m := len(re)
	if m == 0 || len(im) != m || len(full.cos) < m || len(full.sin) < m {
		panic("dsp: rfftFixed operand lengths")
	}
	im = im[:m]
	cos, sin := full.cos[:m], full.sin[:m]
	fftFixed(re, im, half)
	// Unzip pairs (k, m-k): both X[k] and X[m-k] are formed from Z[k] and
	// Z[m-k], so each pair is loaded once and written back in place.
	//   E[k] = (Z[k] + conj(Z[m-k]))/2   (spectrum of even samples)
	//   O[k] = (Z[k] - conj(Z[m-k]))/2i  (spectrum of odd samples)
	//   X[k] = E[k] + W_n^k·O[k],  W_n = e^{-2πi/n}
	// The /2 of E and O and the rotation are fused into one rounded >>17
	// (15 bits of Q15 plus the factor 4 from using doubled E2/O2 terms,
	// halved once more for the 1/n output scale). The dual k/j induction
	// with the explicit j < m condition (1 ≤ k < j < m) is what lets the
	// prove pass cover every access (make bce-check).
	const rnd = 1 << 16
	for k, j := 1, m-1; k < j && j < m; k, j = k+1, j-1 {
		zrk, zik := int64(re[k]), int64(im[k])
		zrj, zij := int64(re[j]), int64(im[j])
		er2 := zrk + zrj                       // 2·Re E[k]
		ei2 := zik - zij                       // 2·Im E[k]
		or2 := zik + zij                       // 2·Re O[k]
		oi2 := zrj - zrk                       // 2·Im O[k]
		cw, sw := int64(cos[k]), int64(sin[k]) // W_n^k in Q15
		p1 := cw*or2 - sw*oi2
		p2 := cw*oi2 + sw*or2
		re[k] = int32((er2<<15 + p1 + rnd) >> 17)
		im[k] = int32((ei2<<15 + p2 + rnd) >> 17)
		re[j] = int32((er2<<15 - p1 + rnd) >> 17)
		im[j] = int32((-ei2<<15 + p2 + rnd) >> 17)
	}
	// Self-paired bins. k = 0: X[0] = Re Z[0] + Im Z[0] (E and O are both
	// real there), halved for the output scale. k = m/2: W_n^{m/2} = -i, so
	// X[m/2] = Re Z[m/2] - i·Im Z[m/2], halved — both exact, no Q15 twiddle.
	zr0, zi0 := int64(re[0]), int64(im[0])
	re[0] = int32((zr0 + zi0 + 1) >> 1)
	im[0] = 0
	if h := m / 2; h > 0 && h < m {
		re[h] = int32((int64(re[h]) + 1) >> 1)
		im[h] = int32((-int64(im[h]) + 1) >> 1)
	}
}

// The frontend's fused per-frame kernel (Frontend.frameInto) runs the packed
// real FFT on interleaved complex values — z[k] = {Re, Im} — so a butterfly
// loads each operand through one index into one array instead of two
// parallel arrays, and a radix-2² block keeps four operands and three
// twiddles live in registers. Every value it produces is bit-identical to the split-array
// path above (fftFixed + rfftFixed): the same Q15 products, the same
// rounding, in the same per-value order (TestFrontendFusedEquivalence,
// FuzzFrontendFrame).
//
// Rounding identity: the reference butterfly rounds the twiddle product to
// Q15, converts it to int32 and then applies the stage's 1/2 scaling,
// int32((x+16384)>>15)>>1. For frontend frames the int32 conversion is
// lossless — windowed samples are below 2^14 per component and every
// stage keeps the complex magnitude within that bound plus rounding, so
// x>>15 stays below 2^16 — and floor(floor(x/2^15)/2) = floor(x/2^16), so
// the fused butterflies compute the same value with a single
// (x+16384)>>16.
//
// int32 lanes: the same bound makes every component and every Q15 twiddle
// at most 32768 in magnitude, so |wr·br| + |wi·bi| + 16384 ≤
// 2·32767·32768 + 16384 < 2^31. The whole product sum therefore fits an
// int32, and the AVX2 stage pairs (stagePairAVX2), which evaluate it with
// wrapping 32-bit multiplies and adds, get the int64 result exactly.

// fftStagePairs runs the generic butterfly stages (size 8 and up) of the
// packed complex FFT over z, which already holds the output of stages 1 and
// 2 (gatherFrame). stages[s] are the interleaved twiddles of stage s, half
// size 4<<s. Consecutive stages are fused in pairs as radix-2² register
// blocks: block quarters a, b, c, d see stage s on (a, b) and (c, d) with
// twiddle t1[k], then stage s+1 on (a, c) with t2[k] and on (b, d) with
// t2[h+k] — the same butterflies the two separate sweeps would run, each
// value passing through memory once instead of twice. An odd stage count
// ends with one plain radix-2 sweep. Every block bound derives from slice
// lengths, so the function carries no bounds checks (make bce-check).
//
// Under useAVX2 a pair whose quarter length h is a multiple of 4 (h = 4,
// 16 and 64 for the paper's 256-point transform: every pair) runs as
// stagePairAVX2, four butterflies per ymm register; the other pairs and an
// odd trailing stage keep the Go loops.
func fftStagePairs(z [][2]int32, stages [][][2]int32) {
	for ; len(stages) >= 2; stages = stages[2:] {
		t1, t2 := stages[0], stages[1]
		h := len(t1)
		if h == 0 || len(t2) < h {
			panic("dsp: fftStagePairs twiddle tables")
		}
		t2lo, t2hi := t2[:h], t2[h:]
		if len(t2hi) < h {
			panic("dsp: fftStagePairs twiddle tables")
		}
		t2hi = t2hi[:h]
		if useAVX2 && h%4 == 0 {
			stagePairAVX2(z, t1, t2)
			continue
		}
		for blk := z; len(blk) >= h; {
			a := blk[:h]
			blk = blk[h:]
			if len(blk) < h {
				break
			}
			b := blk[:h]
			blk = blk[h:]
			if len(blk) < h {
				break
			}
			c := blk[:h]
			blk = blk[h:]
			if len(blk) < h {
				break
			}
			d := blk[:h]
			blk = blk[h:]
			for k := 0; k < h; k++ {
				ar, ai := int64(a[k][0]), int64(a[k][1])
				br, bi := int64(b[k][0]), int64(b[k][1])
				cr, ci := int64(c[k][0]), int64(c[k][1])
				dr, di := int64(d[k][0]), int64(d[k][1])
				// Stage s: (a, b) and (c, d), both with twiddle t1[k].
				wr, wi := int64(t1[k][0]), int64(t1[k][1])
				tr := (wr*br - wi*bi + 16384) >> 16
				ti := (wr*bi + wi*br + 16384) >> 16
				ar, ai = ar>>1, ai>>1
				ar, ai, br, bi = ar+tr, ai+ti, ar-tr, ai-ti
				tr = (wr*dr - wi*di + 16384) >> 16
				ti = (wr*di + wi*dr + 16384) >> 16
				cr, ci = cr>>1, ci>>1
				cr, ci, dr, di = cr+tr, ci+ti, cr-tr, ci-ti
				// Stage s+1: (a, c) with t2[k], (b, d) with t2[h+k].
				wr, wi = int64(t2lo[k][0]), int64(t2lo[k][1])
				tr = (wr*cr - wi*ci + 16384) >> 16
				ti = (wr*ci + wi*cr + 16384) >> 16
				ar, ai = ar>>1, ai>>1
				a[k] = [2]int32{int32(ar + tr), int32(ai + ti)}
				c[k] = [2]int32{int32(ar - tr), int32(ai - ti)}
				wr, wi = int64(t2hi[k][0]), int64(t2hi[k][1])
				tr = (wr*dr - wi*di + 16384) >> 16
				ti = (wr*di + wi*dr + 16384) >> 16
				br, bi = br>>1, bi>>1
				b[k] = [2]int32{int32(br + tr), int32(bi + ti)}
				d[k] = [2]int32{int32(br - tr), int32(bi - ti)}
			}
		}
	}
	if len(stages) == 1 {
		t := stages[0]
		h := len(t)
		for blk := z; h > 0 && len(blk) >= h; {
			a := blk[:h]
			blk = blk[h:]
			if len(blk) < h {
				break
			}
			b := blk[:h]
			blk = blk[h:]
			for k := 0; k < h; k++ {
				ar, ai := int64(a[k][0]), int64(a[k][1])
				br, bi := int64(b[k][0]), int64(b[k][1])
				wr, wi := int64(t[k][0]), int64(t[k][1])
				tr := (wr*br - wi*bi + 16384) >> 16
				ti := (wr*bi + wi*br + 16384) >> 16
				ar, ai = ar>>1, ai>>1
				a[k] = [2]int32{int32(ar + tr), int32(ai + ti)}
				b[k] = [2]int32{int32(ar - tr), int32(ai - ti)}
			}
		}
	}
}

// unzipPower is the real-FFT split post-pass of rfftFixed fused with the
// spectral power: for the packed m-point transform z (m = len(pow)) it
// writes pow[k] = Re(X[k])² + Im(X[k])² for bins 0..m-1 of the length-2m
// real transform, squaring each unzipped value while it is in registers.
// post[k] is the interleaved Q15 twiddle W_{2m}^k. The arithmetic producing
// each Re/Im is rfftFixed's term for term (TestRFFTPowerMatchesRFFT), so the
// powers are bit-identical to squaring its spectrum. The dual k/j induction
// with the explicit j < m bound keeps the loop check-free (make bce-check);
// its indices are unsigned so the bound holds from any start.
//
// Under useAVX2 the pairs k = 1..4g, g = (m/2-1)/4 groups of four, run as
// unzipPowerAVX2 and the loop finishes the rest; the self-paired bins 0
// and m/2 are always computed here.
func unzipPower(z, post [][2]int32, pow []uint64) {
	m := len(pow)
	if m == 0 || len(z) < m || len(post) < m {
		panic("dsp: unzipPower operand lengths")
	}
	z, post = z[:m], post[:m]
	k0 := 1
	if g := (m/2 - 1) / 4; useAVX2 && g > 0 {
		unzipPowerAVX2(z, post, pow, g)
		k0 += 4 * g
	}
	const rnd = 1 << 16
	for k, j := uint(k0), uint(m-k0); k < j && j < uint(m); k, j = k+1, j-1 {
		zrk, zik := int64(z[k][0]), int64(z[k][1])
		zrj, zij := int64(z[j][0]), int64(z[j][1])
		er2 := zrk + zrj
		ei2 := zik - zij
		or2 := zik + zij
		oi2 := zrj - zrk
		cw, sw := int64(post[k][0]), int64(post[k][1])
		p1 := cw*or2 - sw*oi2
		p2 := cw*oi2 + sw*or2
		xr := int64(int32((er2<<15 + p1 + rnd) >> 17))
		xi := int64(int32((ei2<<15 + p2 + rnd) >> 17))
		yr := int64(int32((er2<<15 - p1 + rnd) >> 17))
		yi := int64(int32((-ei2<<15 + p2 + rnd) >> 17))
		pow[k] = uint64(xr*xr + xi*xi)
		pow[j] = uint64(yr*yr + yi*yi)
	}
	x0 := int64(int32((int64(z[0][0]) + int64(z[0][1]) + 1) >> 1))
	pow[0] = uint64(x0 * x0)
	if h := m / 2; h > 0 && h < m {
		xr := int64(int32((int64(z[h][0]) + 1) >> 1))
		xi := int64(int32((-int64(z[h][1]) + 1) >> 1))
		pow[h] = uint64(xr*xr + xi*xi)
	}
}

// ButterflyCount returns the number of butterflies an n-point FFT executes,
// for cycle-cost accounting.
func ButterflyCount(n int) uint64 {
	if n <= 1 {
		return 0
	}
	return uint64(n/2) * uint64(bits.TrailingZeros(uint(n)))
}
