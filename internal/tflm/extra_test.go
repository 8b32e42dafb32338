package tflm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDepthwiseInt8TracksFloatConv: depthwise conv with depth multiplier 1
// equals a per-channel grouped convolution; validate the quantized kernel
// against a float computation channel by channel.
func TestDepthwiseInt8TracksFloatConv(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const h, w, c = 7, 6, 3
	inF := randomFloats(r, h*w*c, 1.0)
	wF := randomFloats(r, 3*3*c, 0.5)
	bF := randomFloats(r, c, 0.1)

	// Float reference computed directly.
	outH, padT := convOutputSize(h, 3, 1, PaddingSame)
	outW, padL := convOutputSize(w, 3, 1, PaddingSame)
	ref := make([]float32, outH*outW*c)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for ch := 0; ch < c; ch++ {
				acc := bF[ch]
				for ky := 0; ky < 3; ky++ {
					iy := oy - padT + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < 3; kx++ {
						ix := ox - padL + kx
						if ix < 0 || ix >= w {
							continue
						}
						acc += inF[(iy*w+ix)*c+ch] * wF[(ky*3+kx)*c+ch]
					}
				}
				ref[(oy*outW+ox)*c+ch] = acc
			}
		}
	}

	qin := quantizeTensorF32("in", []int{1, h, w, c}, inF)
	qw := quantizeWeights("w", []int{1, 3, 3, c}, wF)
	qb := quantizeBias("b", bF, qin.Quant.Scale, qw.Quant.Scale)
	outMin, outMax := 0.0, 0.0
	for _, v := range ref {
		outMin = math.Min(outMin, float64(v))
		outMax = math.Max(outMax, float64(v))
	}
	oq := ChooseQuantParams(outMin, outMax)
	qout := &Tensor{Type: Int8, Shape: []int{1, outH, outW, c}, Quant: &oq}
	p := Conv2DParams{StrideH: 1, StrideW: 1, Padding: PaddingSame, DepthMultiplier: 1}
	checkOneNode(t, OpDepthwiseConv2D, p, qin, qout, func(in, out *Tensor) {
		mustRef(t, evalDepthwiseConv2DRef(in, qw, qb, out, p))
	}, qw, qb)
	for i := range ref {
		got := oq.Dequantize(qout.I8[i])
		if math.Abs(got-float64(ref[i])) > 4*oq.Scale {
			t.Fatalf("out[%d]: %v vs %v", i, got, ref[i])
		}
	}
}

// TestPoolingWithSamePadding: pooled windows at the border must only
// average the in-bounds elements (TFLite semantics).
func TestPoolingWithSamePadding(t *testing.T) {
	unit := QuantParams{Scale: 1, ZeroPoint: 0}
	// 3x3 input, 2x2 filter, stride 2, SAME → 2x2 output; the bottom-right
	// window sees a single element.
	in := &Tensor{Type: Int8, Shape: []int{1, 3, 3, 1}, Quant: &unit,
		I8: []int8{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	out := &Tensor{Type: Int8, Shape: []int{1, 2, 2, 1}, Quant: &unit}
	p := PoolParams{FilterH: 2, FilterW: 2, StrideH: 2, StrideW: 2, Padding: PaddingSame}
	invokeOneNode(t, OpAvgPool2D, p, in, out)
	want := []int8{3, 5, 8, 9} // avg{1,2,4,5}=3, avg{3,6}=5 (rounded), avg{7,8}=8, avg{9}=9
	for i := range want {
		if out.I8[i] != want[i] {
			t.Fatalf("avgpool[%d] = %d, want %d", i, out.I8[i], want[i])
		}
	}
	invokeOneNode(t, OpMaxPool2D, p, in, out)
	wantMax := []int8{5, 6, 8, 9}
	for i := range wantMax {
		if out.I8[i] != wantMax[i] {
			t.Fatalf("maxpool[%d] = %d, want %d", i, out.I8[i], wantMax[i])
		}
	}
}

// TestRequantOrderInvariance: for a positive multiplier, requantize-then-
// clamp at the zero point equals ReLU-then-requantize — the property the
// integer baselines (intnet) rely on when they skip requantization.
func TestRequantOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mult, err := NewQuantizedMultiplier(math.Exp(r.Float64()*6 - 6))
		if err != nil {
			return false
		}
		zp := int32(r.Intn(50) - 25)
		for i := 0; i < 50; i++ {
			acc := int32(r.Intn(1<<20) - 1<<19)
			// Path A: requantize, add zp, clamp at zp (fused ReLU).
			a := mult.Apply(acc) + zp
			if a < zp {
				a = zp
			}
			// Path B: ReLU on the accumulator, then requantize.
			accB := acc
			if accB < 0 {
				accB = 0
			}
			bV := mult.Apply(accB) + zp
			if bV < zp {
				bV = zp
			}
			// Identical up to one rounding quantum.
			if d := a - bV; d > 1 || d < -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBuildRandomTinyConvMultipliers checks the exported builder across
// widths (used by E10 and the benchmarks).
func TestBuildRandomTinyConvMultipliers(t *testing.T) {
	for _, mul := range []int{1, 2, 4} {
		m, err := BuildRandomTinyConv(mul, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.NumMACs(); got != uint64(4400*80+12*4400)*uint64(mul) {
			t.Fatalf("mul %d: MACs = %d", mul, got)
		}
		if _, err := NewInterpreter(m); err != nil {
			t.Fatalf("mul %d: %v", mul, err)
		}
	}
	if _, err := BuildRandomTinyConv(0, 1); err == nil {
		t.Fatal("zero multiplier accepted")
	}
	// Same seed, same bytes.
	a, _ := BuildRandomTinyConv(1, 5)
	b, _ := BuildRandomTinyConv(1, 5)
	ab, _ := Encode(a)
	bb, _ := Encode(b)
	if string(ab) != string(bb) {
		t.Fatal("builder not deterministic")
	}
}

// TestArenaOffsetsRecorded: after planning, non-const tensors carry their
// arena offsets for diagnostics.
func TestArenaOffsetsRecorded(t *testing.T) {
	m := testTinyConvModel(t, 1)
	if _, err := NewInterpreter(m); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, tt := range m.Tensors {
		if !tt.IsConst && tt.ArenaOffset >= 0 {
			seen = true
		}
		if tt.IsConst && tt.ArenaOffset > 0 {
			t.Fatalf("const tensor %q has arena offset", tt.Name)
		}
	}
	if !seen {
		t.Fatal("no arena offsets recorded")
	}
}
