package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference.
func naiveDFT(x []float64) (re, im []float64) {
	n := len(x)
	re = make([]float64, n)
	im = make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			re[k] += x[t] * math.Cos(ang)
			im[k] += x[t] * math.Sin(ang)
		}
	}
	return re, im
}

func TestFFTFloatMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 4, 8, 64, 256} {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		wantRe, wantIm := naiveDFT(x)
		re := append([]float64(nil), x...)
		im := make([]float64, n)
		if err := FFTFloat(re, im); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if math.Abs(re[k]-wantRe[k]) > 1e-9*float64(n) || math.Abs(im[k]-wantIm[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got (%g,%g), want (%g,%g)", n, k, re[k], im[k], wantRe[k], wantIm[k])
			}
		}
	}
}

func TestFFTFloatKnownTransforms(t *testing.T) {
	// DC input: all energy in bin 0.
	re := []float64{1, 1, 1, 1}
	im := make([]float64, 4)
	if err := FFTFloat(re, im); err != nil {
		t.Fatal(err)
	}
	if math.Abs(re[0]-4) > 1e-12 || math.Abs(re[1]) > 1e-12 {
		t.Fatalf("DC transform: %v", re)
	}
	// Impulse: flat spectrum.
	re = []float64{1, 0, 0, 0}
	im = make([]float64, 4)
	if err := FFTFloat(re, im); err != nil {
		t.Fatal(err)
	}
	for k := range re {
		if math.Abs(re[k]-1) > 1e-12 || math.Abs(im[k]) > 1e-12 {
			t.Fatalf("impulse transform bin %d: (%g,%g)", k, re[k], im[k])
		}
	}
}

func TestFFTFloatParseval(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 128
	x := make([]float64, n)
	var timeEnergy float64
	for i := range x {
		x[i] = r.Float64()*2 - 1
		timeEnergy += x[i] * x[i]
	}
	re := append([]float64(nil), x...)
	im := make([]float64, n)
	if err := FFTFloat(re, im); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for k := 0; k < n; k++ {
		freqEnergy += re[k]*re[k] + im[k]*im[k]
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-9*float64(n) {
		t.Fatalf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestFFTRejectsBadSizes(t *testing.T) {
	if err := FFTFloat(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if err := FFTFloat(make([]float64, 4), make([]float64, 2)); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := FFTFixed(make([]int32, 0), make([]int32, 0)); err == nil {
		t.Fatal("empty input accepted")
	}
	if err := FFTFixed(make([]int32, 6), make([]int32, 6)); err == nil {
		t.Fatal("non-power-of-two accepted (fixed)")
	}
}

// TestFFTFixedTracksFloat: the fixed-point FFT output (scaled by n) must
// approximate the float FFT within quantization error bounds.
func TestFFTFixedTracksFloat(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{64, 256, 512} {
		reF := make([]float64, n)
		imF := make([]float64, n)
		reI := make([]int32, n)
		imI := make([]int32, n)
		for i := 0; i < n; i++ {
			v := int32(r.Intn(32767) - 16384)
			reI[i] = v
			reF[i] = float64(v)
		}
		if err := FFTFloat(reF, imF); err != nil {
			t.Fatal(err)
		}
		if err := FFTFixed(reI, imI); err != nil {
			t.Fatal(err)
		}
		// Fixed output is scaled by 1/n. Tolerance: stage-scaling truncation
		// grows like log2(n); a few LSB per stage on 16k-magnitude values.
		tol := float64(n) // empirically ~log2(n) LSBs after rescale
		var worst float64
		for k := 0; k < n; k++ {
			gotRe := float64(reI[k]) * float64(n)
			gotIm := float64(imI[k]) * float64(n)
			dRe := math.Abs(gotRe - reF[k])
			dIm := math.Abs(gotIm - imF[k])
			if dRe > worst {
				worst = dRe
			}
			if dIm > worst {
				worst = dIm
			}
		}
		// Relative to the typical magnitude (~sqrt(n)*16384), the error must
		// be small.
		typical := math.Sqrt(float64(n)) * 16384
		if worst/typical > 0.02 {
			t.Fatalf("n=%d: worst error %.0f (%.2f%% of typical %0.f)", n, worst, 100*worst/typical, typical)
		}
		_ = tol
	}
}

// TestFFTFixedToneBin: a pure tone lands its energy in the right bin.
func TestFFTFixedToneBin(t *testing.T) {
	const n = 512
	const bin = 37
	re := make([]int32, n)
	im := make([]int32, n)
	for i := 0; i < n; i++ {
		re[i] = int32(16000 * math.Cos(2*math.Pi*float64(bin)*float64(i)/float64(n)))
	}
	if err := FFTFixed(re, im); err != nil {
		t.Fatal(err)
	}
	power := func(k int) int64 { return int64(re[k])*int64(re[k]) + int64(im[k])*int64(im[k]) }
	peak := power(bin)
	for k := 0; k < n/2; k++ {
		if k == bin {
			continue
		}
		if power(k) > peak/4 {
			t.Fatalf("bin %d power %d rivals tone bin %d power %d", k, power(k), bin, peak)
		}
	}
}

func TestFFTFixedLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 64
		a := make([]int32, n)
		b := make([]int32, n)
		sum := make([]int32, n)
		for i := 0; i < n; i++ {
			a[i] = int32(r.Intn(8192) - 4096)
			b[i] = int32(r.Intn(8192) - 4096)
			sum[i] = a[i] + b[i]
		}
		ia, ib, is := make([]int32, n), make([]int32, n), make([]int32, n)
		if FFTFixed(a, ia) != nil || FFTFixed(b, ib) != nil || FFTFixed(sum, is) != nil {
			return false
		}
		// FFT(a)+FFT(b) ≈ FFT(a+b) within truncation noise.
		for k := 0; k < n; k++ {
			if d := int64(a[k] + b[k] - sum[k]); d > 8 || d < -8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// fixedWorstError runs one fixed-point transform of x and returns its worst
// absolute deviation (rescaled by n) from the float reference over bins
// 0..n/2-1 — the bins the frontend consumes.
func fixedWorstError(t *testing.T, x []int32, rfft bool) float64 {
	t.Helper()
	n := len(x)
	reF := make([]float64, n)
	imF := make([]float64, n)
	for i, v := range x {
		reF[i] = float64(v)
	}
	if err := FFTFloat(reF, imF); err != nil {
		t.Fatal(err)
	}
	var re, im []int32
	if rfft {
		re = make([]int32, n/2)
		im = make([]int32, n/2)
		if err := RFFTFixed(x, re, im); err != nil {
			t.Fatal(err)
		}
	} else {
		re = append([]int32(nil), x...)
		im = make([]int32, n)
		if err := FFTFixed(re, im); err != nil {
			t.Fatal(err)
		}
	}
	var worst float64
	for k := 0; k < n/2; k++ {
		if d := math.Abs(float64(re[k])*float64(n) - reF[k]); d > worst {
			worst = d
		}
		if d := math.Abs(float64(im[k])*float64(n) - imF[k]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestRFFTFixedTracksFloat: the real-input FFT must approximate the float
// reference at least as tightly as the full-size complex FFTFixed it
// replaces — the packed transform drops one truncating butterfly stage and
// the split post-pass rounds, so randomized inputs should never show a
// larger worst-case error. A small slack absorbs ties on the last LSB.
func TestRFFTFixedTracksFloat(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{8, 64, 256, 512} {
		for trial := 0; trial < 25; trial++ {
			x := make([]int32, n)
			for i := range x {
				x[i] = int32(r.Intn(32768) - 16384)
			}
			rErr := fixedWorstError(t, x, true)
			cErr := fixedWorstError(t, x, false)
			if rErr > cErr+float64(n) {
				t.Fatalf("n=%d trial %d: rfft worst error %.0f exceeds complex-FFT bound %.0f", n, trial, rErr, cErr)
			}
			typical := math.Sqrt(float64(n)) * 16384
			if rErr/typical > 0.02 {
				t.Fatalf("n=%d trial %d: rfft worst error %.0f (%.2f%% of typical)", n, trial, rErr, 100*rErr/typical)
			}
		}
	}
}

// TestRFFTFixedToneBin: the real FFT localizes a pure tone exactly like the
// complex path (the frontend's feature-column mapping depends on it).
func TestRFFTFixedToneBin(t *testing.T) {
	const n = 512
	const bin = 37
	x := make([]int32, n)
	for i := 0; i < n; i++ {
		x[i] = int32(16000 * math.Cos(2*math.Pi*float64(bin)*float64(i)/float64(n)))
	}
	re := make([]int32, n/2)
	im := make([]int32, n/2)
	if err := RFFTFixed(x, re, im); err != nil {
		t.Fatal(err)
	}
	power := func(k int) int64 { return int64(re[k])*int64(re[k]) + int64(im[k])*int64(im[k]) }
	peak := power(bin)
	for k := 0; k < n/2; k++ {
		if k == bin {
			continue
		}
		if power(k) > peak/4 {
			t.Fatalf("bin %d power %d rivals tone bin %d power %d", k, power(k), bin, peak)
		}
	}
}

func TestRFFTFixedRejectsBadSizes(t *testing.T) {
	if err := RFFTFixed(make([]int32, 6), make([]int32, 3), make([]int32, 3)); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if err := RFFTFixed(nil, nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if err := RFFTFixed(make([]int32, 8), make([]int32, 3), make([]int32, 4)); err == nil {
		t.Fatal("undersized output accepted")
	}
}

func TestDefaultFrontendGeometryMatchesPaper(t *testing.T) {
	cfg := DefaultFrontend()
	if cfg.NumFeatures() != 43 {
		t.Fatalf("features per frame = %d, want 43", cfg.NumFeatures())
	}
	if cfg.FingerprintLen() != 49*43 {
		t.Fatalf("fingerprint length = %d, want %d", cfg.FingerprintLen(), 49*43)
	}
	if got := cfg.UtteranceSamples(); got != 15840 {
		t.Fatalf("utterance samples = %d (must fit in 1 s of 16 kHz audio)", got)
	}
}

func TestFrontendExtract(t *testing.T) {
	fe, err := NewFrontend(DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	// Silence produces near-zero features.
	silence := make([]int16, 16000)
	fp := fe.Extract(silence)
	if len(fp) != 49*43 {
		t.Fatalf("fingerprint length %d", len(fp))
	}
	for i, v := range fp {
		if v != 0 {
			t.Fatalf("silence feature %d = %d", i, v)
		}
	}
	// A loud 1 kHz tone produces energy in the right feature column:
	// 1000 Hz / (16000/512) = bin 32 → feature 32/6 = 5.
	tone := make([]int16, 16000)
	for i := range tone {
		tone[i] = int16(12000 * math.Sin(2*math.Pi*1000*float64(i)/16000))
	}
	fp = fe.Extract(tone)
	features := 43
	var colEnergy [43]int
	for f := 0; f < 49; f++ {
		for c := 0; c < features; c++ {
			colEnergy[c] += int(fp[f*features+c])
		}
	}
	best := 0
	for c := range colEnergy {
		if colEnergy[c] > colEnergy[best] {
			best = c
		}
	}
	if best != 5 {
		t.Fatalf("tone energy in feature column %d, want 5", best)
	}
	// Short input is zero-padded, not a crash; output deterministic.
	short := fe.Extract(tone[:1000])
	short2 := fe.Extract(tone[:1000])
	for i := range short {
		if short[i] != short2[i] {
			t.Fatal("non-deterministic extraction")
		}
	}
}

func TestFrontendConfigValidation(t *testing.T) {
	bad := DefaultFrontend()
	bad.FFTSize = 500
	if _, err := NewFrontend(bad); err == nil {
		t.Fatal("non-power-of-two FFT accepted")
	}
	bad = DefaultFrontend()
	bad.WindowSamples = 1024
	if _, err := NewFrontend(bad); err == nil {
		t.Fatal("window larger than FFT accepted")
	}
	bad = DefaultFrontend()
	bad.NumBins = 512
	if _, err := NewFrontend(bad); err == nil {
		t.Fatal("too many bins accepted")
	}
	bad = DefaultFrontend()
	bad.AvgWidth = 0
	if _, err := NewFrontend(bad); err == nil {
		t.Fatal("zero averaging width accepted")
	}
	// Wider features than binAverage is proven exact for.
	bad = DefaultFrontend()
	bad.FFTSize, bad.NumBins, bad.AvgWidth = 1<<18, 1<<17, 1<<17
	if _, err := NewFrontend(bad); err == nil {
		t.Fatal("averaging width above maxAvgWidth accepted")
	}
}

func TestLogCompress(t *testing.T) {
	if logCompress(0) != 0 {
		t.Fatal("logCompress(0) != 0")
	}
	if logCompress(1<<62) != 255 {
		t.Fatal("huge power does not saturate")
	}
	prev := uint8(0)
	for p := uint64(1); p < 1<<40; p *= 4 {
		v := logCompress(p)
		if v < prev {
			t.Fatal("logCompress not monotone")
		}
		prev = v
	}
}

func TestFrontendCycles(t *testing.T) {
	fe, err := NewFrontend(DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	c := fe.Cycles()
	// 49 frames × (1024 packed butterflies × 14 + 256-bin split post-pass +
	// bins + window) ≈ 0.9M cycles: sub-millisecond at 2.4 GHz, consistent
	// with the real-time claim, and roughly half the pre-rfft 1.7M model.
	if c < 500_000 || c > 2_500_000 {
		t.Fatalf("frontend cycles = %d, outside plausible band", c)
	}
	if ButterflyCount(512) != 256*9 {
		t.Fatalf("butterfly count = %d", ButterflyCount(512))
	}
	if ButterflyCount(1) != 0 {
		t.Fatal("butterfly count of size-1 FFT")
	}
}

func TestRFFTFixedRejectsSizeOne(t *testing.T) {
	if err := RFFTFixed(make([]int32, 1), make([]int32, 1), make([]int32, 1)); err == nil {
		t.Fatal("size-1 real FFT accepted")
	}
}
