package tflm

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzConvKernel turns fuzz bytes into one-node int8 Conv2D models and
// requires Invoke (checkOneNode) to equal evalConv2DInt8Ref under both GEMM
// kernels. The geometry covers kernel rows shorter than, equal to and
// longer than one 8-byte half, with every residue of kW·inC mod 8; strides 1–3; SAME and VALID padding, including
// VALID windows that run past the input; any input and output zero point
// (−128 and 127 among them); and 1–20 filters, on and off the 8-filter
// grid. Activations and weights cycle through data. The checked-in corpus
// (testdata/fuzz/FuzzConvKernel) pins the tiny_conv node, rows of 3, 9 and
// 15 bytes, a VALID stride-3 sweep and both zero-point extremes.
func FuzzConvKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, kh, kw, inc, stride, outc, extra uint8, inZP, outZP int8, act uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		kH, kW, inC := 1+int(kh%10), 1+int(kw%10), 1+int(inc%5)
		sH, sW := 1+int(stride%3), 1+int(stride/3%3)
		pad := PaddingSame
		if stride&0x80 != 0 {
			pad = PaddingValid
		}
		inH, inW := kH+int(extra%12), kW+int(extra/12%12)
		outC := 1 + int(outc%20)
		outH, _ := convOutputSize(inH, kH, sH, pad)
		outW, _ := convOutputSize(inW, kW, sW, pad)
		in := &Tensor{Name: "in", Type: Int8, Shape: []int{1, inH, inW, inC}, Quant: &QuantParams{Scale: 0.75, ZeroPoint: int32(inZP)}}
		in.Alloc()
		w := &Tensor{Name: "w", Type: Int8, Shape: []int{outC, kH, kW, inC}, Quant: &QuantParams{Scale: 0.03}}
		w.Alloc()
		for i := range in.I8 {
			in.I8[i] = int8(data[i%len(data)])
		}
		for i := range w.I8 {
			w.I8[i] = int8(data[(len(in.I8)+i)%len(data)])
		}
		bias := &Tensor{Name: "b", Type: Int32, Shape: []int{outC}}
		bias.Alloc()
		for i := range bias.I32 {
			bias.I32[i] = int32(i%9-4) * 97
		}
		oq := &QuantParams{Scale: 0.05 + float64(act>>2)/16, ZeroPoint: int32(outZP)}
		p := Conv2DParams{StrideH: sH, StrideW: sW, Padding: pad, Activation: Activation(act % 3)}
		forEachGEMMKernel(t, func(t *testing.T) {
			got := &Tensor{Name: "out", Type: Int8, Shape: []int{1, outH, outW, outC}, Quant: oq}
			checkOneNode(t, OpConv2D, p, in, got, func(in, out *Tensor) {
				mustRef(t, evalConv2DInt8Ref(in, w, bias, out, p))
			}, w, bias)
		})
	})
}

// TestRequantEpilogueMatchesApply sweeps both kernels' requantization
// epilogues against QuantizedMultiplier.Apply: every shift Validate admits
// (NewQuantizedMultiplier yields −31…1024) times the multipliers 0, 2^30,
// 2^31−1 and one in between, over MinInt32, MaxInt32, 0, ±1 and the
// accumulators on either side of each rounding threshold — of the high
// multiply (x·M = (2j+1)·2^30) and of the rounding divide (v = (j+½)·2^rsh),
// with the left shift's wrap points too. The whole int32 result is
// observed, not just the int8 the clamp leaves: the output zero point is
// set to −Apply(acc), so an exact epilogue stores 0 and any other int32
// result stores a nonzero byte.
func TestRequantEpilogueMatchesApply(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) {
		// Zero weights and bias: the accumulator is the seed alone.
		in := &Tensor{Name: "in", Type: Int8, Shape: []int{1, 16}, Quant: &QuantParams{Scale: 1, ZeroPoint: 5}}
		in.Alloc()
		for i := range in.I8 {
			in.I8[i] = int8(i*37 - 100)
		}
		w := &Tensor{Name: "w", Type: Int8, Shape: []int{avx2Panel, 16}, Quant: &QuantParams{Scale: 1}}
		w.Alloc()
		bias := &Tensor{Name: "b", Type: Int32, Shape: []int{avx2Panel}}
		bias.Alloc()
		out := &Tensor{Name: "out", Type: Int8, Shape: []int{1, avx2Panel}, Quant: &QuantParams{Scale: 1}}
		out.Alloc()
		pr := prepLinearInt8(in, w, bias, out, ActNone, avx2Panel, 1, 16, 0)
		xb := make([]uint64, pr.gemmScratchLen())
		checked := 0
		for shift := -31; shift <= 1024; shift++ {
			for _, mul := range []int32{0, 1 << 30, 1<<31 - 1, 1553040331} {
				m := QuantizedMultiplier{Multiplier: mul, Shift: shift}
				for _, acc := range epilogueCorners(m) {
					r := m.Apply(acc)
					pr.rq = requantFor(m, -r, -128, 127)
					if got := pr.requantOne(acc); got != 0 {
						t.Fatalf("requantOne(%d) under %+v off by %d", acc, m, got)
					}
					for j := range pr.seeds {
						pr.seeds[j] = acc
					}
					pr.fcRows(in.I8, out.I8, 1, xb)
					for j, got := range out.I8 {
						if got != 0 {
							t.Fatalf("kernel lane %d, acc %d under %+v: off by %d", j, acc, m, got)
						}
					}
					checked++
				}
			}
		}
		t.Logf("%d (shift, multiplier, accumulator) cases", checked)
	})
}

// epilogueCorners returns the accumulators TestRequantEpilogueMatchesApply
// checks under m: the int32 extremes, 0 and ±1, and ±1 around each
// rounding threshold and left-shift wrap point.
func epilogueCorners(m QuantizedMultiplier) []int32 {
	accs := []int64{math.MinInt32, math.MaxInt32, 0, 1, -1}
	lsh, rsh := max(m.Shift, 0), max(-m.Shift, 0)
	if lsh < 31 {
		// x = acc << lsh wraps at ±2^(31−lsh).
		accs = append(accs, 1<<(31-lsh), -1<<(31-lsh))
	}
	if m.Multiplier > 0 && lsh < 31 {
		for j := int64(-3); j <= 3; j++ {
			// The high multiply rounds at x·M = (2j+1)·2^30.
			x := (2*j + 1) << 30 / int64(m.Multiplier)
			accs = append(accs, x>>lsh)
			// The rounding divide rounds at v = (j+½)·2^rsh, where
			// v ≈ x·M/2^31.
			if v := j<<rsh + 1<<rsh/2; v >= math.MinInt32 && v <= math.MaxInt32 {
				accs = append(accs, (v<<31/int64(m.Multiplier))>>lsh)
			}
		}
	}
	var out []int32
	for _, a := range accs {
		for d := int64(-1); d <= 1; d++ {
			if v := a + d; v >= math.MinInt32 && v <= math.MaxInt32 {
				out = append(out, int32(v))
			}
		}
	}
	return out
}

// TestReLU6TinyOutputScale: a ReLU6 bound 6/scale beyond int32 must not
// wrap to an empty clamp range — the vector clamp (max, then min) and
// clampInt32 disagree on one — and a FullyConnected with such an output
// scale must still match the reference under both kernels.
func TestReLU6TinyOutputScale(t *testing.T) {
	oq := QuantParams{Scale: 1e-12, ZeroPoint: 3}
	if lo, hi := activationRangeQuantized(ActReLU6, oq); lo != 3 || hi != 127 {
		t.Fatalf("range [%d, %d], want [3, 127]", lo, hi)
	}
	forEachGEMMKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(4))
		in := randQuantTensor(r, "in", []int{2, 24}, 0.5, -9)
		w := randQuantTensor(r, "w", []int{10, 24}, 1e-11, 0)
		bias := &Tensor{Name: "b", Type: Int32, Shape: []int{10}}
		bias.Alloc()
		got := &Tensor{Name: "out", Type: Int8, Shape: []int{2, 10}, Quant: &oq}
		p := FullyConnectedParams{Activation: ActReLU6}
		checkOneNode(t, OpFullyConnected, p, in, got, func(in, out *Tensor) {
			mustRef(t, evalFullyConnectedRef(in, w, bias, out, p))
		}, w, bias)
	})
}

// TestTinyConvScratchSize: tiny_conv's int8 conv owns its padded input
// image — 58 rows × 50 columns (the 49×43 input under 10×8 SAME windows at
// stride 2) plus 8 bytes of read slack — instead of the 550×80 = 44 000 B
// im2col column slab it replaced. On top of it sit the GEMM row scratch
// (none under AVX2; under SWAR the FullyConnected's gathered 4400-byte row
// and two packed rows of 1467 words) and the softmax staging (2 × 12
// float64). Before the image, the same model reported 44 192 B under AVX2
// and 67 664 B under SWAR.
func TestTinyConvScratchSize(t *testing.T) {
	const image, softmax = 58*50 + 8, 2 * 8 * 12
	forEachGEMMKernel(t, func(t *testing.T) {
		m, err := BuildRandomTinyConv(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := NewInterpreter(m)
		if err != nil {
			t.Fatal(err)
		}
		want := image + softmax
		if !useAVX2 {
			want += 8 * (4400/8 + 2*1467)
		}
		if got := ip.ScratchSize(); got != want {
			t.Fatalf("ScratchSize = %d, want %d", got, want)
		}
	})
}
