package tflm

import (
	"math"
	"math/rand"
	"testing"
)

// quantizeTensorF32 builds an int8 tensor approximating src with calibrated
// parameters; returns the tensor for kernel-level parity tests.
func quantizeTensorF32(name string, shape []int, src []float32) *Tensor {
	minV, maxV := 0.0, 0.0
	for _, v := range src {
		if float64(v) < minV {
			minV = float64(v)
		}
		if float64(v) > maxV {
			maxV = float64(v)
		}
	}
	q := ChooseQuantParams(minV, maxV)
	t := &Tensor{Name: name, Type: Int8, Shape: shape, Quant: &q}
	t.Alloc()
	for i, v := range src {
		t.I8[i] = q.Quantize(float64(v))
	}
	return t
}

// quantizeWeights uses symmetric int8 quantization as TFLite does.
func quantizeWeights(name string, shape []int, src []float32) *Tensor {
	absMax := 0.0
	for _, v := range src {
		if a := math.Abs(float64(v)); a > absMax {
			absMax = a
		}
	}
	q := SymmetricWeightParams(absMax)
	t := &Tensor{Name: name, Type: Int8, Shape: shape, Quant: &q, IsConst: true}
	t.Alloc()
	for i, v := range src {
		t.I8[i] = q.Quantize(float64(v))
	}
	return t
}

// quantizeBias produces the int32 bias with scale inScale*wScale.
func quantizeBias(name string, src []float32, inScale, wScale float64) *Tensor {
	t := &Tensor{Name: name, Type: Int32, Shape: []int{len(src)}, IsConst: true,
		Quant: &QuantParams{Scale: inScale * wScale}}
	t.Alloc()
	for i, v := range src {
		t.I32[i] = int32(math.Round(float64(v) / (inScale * wScale)))
	}
	return t
}

func randomFloats(r *rand.Rand, n int, scale float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32((r.Float64()*2 - 1) * scale)
	}
	return out
}

func TestConvOutputSize(t *testing.T) {
	// The paper's tiny_conv: 49×43 input, 10×8 filter, stride 2, SAME.
	h, padT := convOutputSize(49, 10, 2, PaddingSame)
	w, padL := convOutputSize(43, 8, 2, PaddingSame)
	if h != 25 || w != 22 {
		t.Fatalf("tiny_conv output %dx%d, want 25x22", h, w)
	}
	if padT != 4 || padL != 3 {
		t.Fatalf("padding %d,%d", padT, padL)
	}
	hv, padV := convOutputSize(49, 10, 2, PaddingValid)
	if hv != 20 || padV != 0 {
		t.Fatalf("VALID output %d pad %d", hv, padV)
	}
}

func TestConv2DFloatKnownValues(t *testing.T) {
	// 1x3x3x1 input, one 2x2 filter, stride 1, VALID: plain cross-correlation.
	in := &Tensor{Name: "in", Type: Float32, Shape: []int{1, 3, 3, 1},
		F32: []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	w := &Tensor{Name: "w", Type: Float32, Shape: []int{1, 2, 2, 1},
		F32: []float32{1, 0, 0, 1}}
	bias := &Tensor{Name: "b", Type: Float32, Shape: []int{1}, F32: []float32{0.5}}
	out := &Tensor{Name: "out", Type: Float32, Shape: []int{1, 2, 2, 1}}
	invokeOneNode(t, OpConv2D, Conv2DParams{StrideH: 1, StrideW: 1, Padding: PaddingValid}, in, out, w, bias)
	want := []float32{1 + 5 + 0.5, 2 + 6 + 0.5, 4 + 8 + 0.5, 5 + 9 + 0.5}
	for i := range want {
		if out.F32[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out.F32[i], want[i])
		}
	}
}

func TestConv2DInt8MatchesFloat(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	inF := randomFloats(r, 1*9*7*3, 1.0)
	wF := randomFloats(r, 4*3*3*3, 0.5)
	bF := randomFloats(r, 4, 0.2)

	// Float reference.
	fin := &Tensor{Type: Float32, Shape: []int{1, 9, 7, 3}, F32: inF}
	fw := &Tensor{Type: Float32, Shape: []int{4, 3, 3, 3}, F32: wF}
	fb := &Tensor{Type: Float32, Shape: []int{4}, F32: bF}
	fout := &Tensor{Type: Float32, Shape: []int{1, 5, 4, 4}}
	p := Conv2DParams{StrideH: 2, StrideW: 2, Padding: PaddingSame, Activation: ActReLU}
	invokeOneNode(t, OpConv2D, p, fin, fout, fw, fb)

	// Quantized path.
	qin := quantizeTensorF32("in", []int{1, 9, 7, 3}, inF)
	qw := quantizeWeights("w", []int{4, 3, 3, 3}, wF)
	qb := quantizeBias("b", bF, qin.Quant.Scale, qw.Quant.Scale)
	outMin, outMax := 0.0, 0.0
	for _, v := range fout.F32 {
		if float64(v) > outMax {
			outMax = float64(v)
		}
		if float64(v) < outMin {
			outMin = float64(v)
		}
	}
	oq := ChooseQuantParams(outMin, outMax)
	qout := &Tensor{Type: Int8, Shape: []int{1, 5, 4, 4}, Quant: &oq}
	checkOneNode(t, OpConv2D, p, qin, qout, func(in, out *Tensor) {
		mustRef(t, evalConv2DInt8Ref(in, qw, qb, out, p))
	}, qw, qb)

	var maxErr float64
	for i := range fout.F32 {
		got := oq.Dequantize(qout.I8[i])
		if e := math.Abs(got - float64(fout.F32[i])); e > maxErr {
			maxErr = e
		}
	}
	// Quantization noise budget: a few output quanta.
	if maxErr > 4*oq.Scale {
		t.Fatalf("max abs error %v exceeds %v", maxErr, 4*oq.Scale)
	}
}

// TestConv2DShapeAndStrideErrors: a zero stride, an output shape the
// geometry does not produce, and a filter whose input channels differ from
// the input's fail Validate.
func TestConv2DShapeAndStrideErrors(t *testing.T) {
	cases := []struct {
		name  string
		wC    int
		outHW int
		p     Conv2DParams
	}{
		{"zero stride", 1, 4, Conv2DParams{StrideH: 0, StrideW: 1}},
		{"wrong output shape", 1, 4, Conv2DParams{StrideH: 2, StrideW: 2, Padding: PaddingSame}},
		{"channel mismatch", 3, 4, Conv2DParams{StrideH: 1, StrideW: 1, Padding: PaddingSame}},
	}
	for _, c := range cases {
		in := &Tensor{Type: Float32, Shape: []int{1, 4, 4, 1}}
		w := &Tensor{Type: Float32, Shape: []int{1, 2, 2, c.wC}}
		w.Alloc()
		b := &Tensor{Type: Float32, Shape: []int{1}}
		b.Alloc()
		out := &Tensor{Type: Float32, Shape: []int{1, c.outHW, c.outHW, 1}}
		if err := oneNodeModel(OpConv2D, c.p, in, out, w, b).Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestFullyConnectedInt8MatchesFloat(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const inN, outN = 40, 12
	inF := randomFloats(r, inN, 2.0)
	wF := randomFloats(r, outN*inN, 0.3)
	bF := randomFloats(r, outN, 0.5)

	fin := &Tensor{Type: Float32, Shape: []int{1, inN}, F32: inF}
	fw := &Tensor{Type: Float32, Shape: []int{outN, inN}, F32: wF}
	fb := &Tensor{Type: Float32, Shape: []int{outN}, F32: bF}
	fout := &Tensor{Type: Float32, Shape: []int{1, outN}}
	invokeOneNode(t, OpFullyConnected, FullyConnectedParams{}, fin, fout, fw, fb)

	qin := quantizeTensorF32("in", []int{1, inN}, inF)
	qw := quantizeWeights("w", []int{outN, inN}, wF)
	qb := quantizeBias("b", bF, qin.Quant.Scale, qw.Quant.Scale)
	outMin, outMax := 0.0, 0.0
	for _, v := range fout.F32 {
		if float64(v) > outMax {
			outMax = float64(v)
		}
		if float64(v) < outMin {
			outMin = float64(v)
		}
	}
	oq := ChooseQuantParams(outMin, outMax)
	qout := &Tensor{Type: Int8, Shape: []int{1, outN}, Quant: &oq}
	checkOneNode(t, OpFullyConnected, FullyConnectedParams{}, qin, qout, func(in, out *Tensor) {
		mustRef(t, evalFullyConnectedRef(in, qw, qb, out, FullyConnectedParams{}))
	}, qw, qb)
	for i := range fout.F32 {
		got := oq.Dequantize(qout.I8[i])
		if math.Abs(got-float64(fout.F32[i])) > 4*oq.Scale {
			t.Fatalf("out[%d]: got %v, want %v", i, got, fout.F32[i])
		}
	}
}

// TestFullyConnectedErrors: an input whose element count the weights' depth
// does not divide fails Validate.
func TestFullyConnectedErrors(t *testing.T) {
	in := &Tensor{Type: Float32, Shape: []int{1, 7}}
	w := &Tensor{Type: Float32, Shape: []int{3, 4}}
	w.Alloc()
	b := &Tensor{Type: Float32, Shape: []int{3}}
	b.Alloc()
	out := &Tensor{Type: Float32, Shape: []int{1, 3}}
	if err := oneNodeModel(OpFullyConnected, FullyConnectedParams{}, in, out, w, b).Validate(); err == nil {
		t.Fatal("indivisible input accepted")
	}
}

func TestDepthwiseConv2DKnownValues(t *testing.T) {
	// 1x2x2x2 input, 1x1 filter with per-channel weights 1 and 2: a pure
	// per-channel scale. Quantize with unit scales for exact arithmetic.
	unit := QuantParams{Scale: 1, ZeroPoint: 0}
	in := &Tensor{Type: Int8, Shape: []int{1, 2, 2, 2}, Quant: &unit,
		I8: []int8{1, 10, 2, 20, 3, 30, 4, 40}}
	w := &Tensor{Type: Int8, Shape: []int{1, 1, 1, 2}, Quant: &unit, I8: []int8{1, 2}}
	bias := &Tensor{Type: Int32, Shape: []int{2}, I32: []int32{0, 0}}
	out := &Tensor{Type: Int8, Shape: []int{1, 2, 2, 2}, Quant: &unit}
	p := Conv2DParams{StrideH: 1, StrideW: 1, Padding: PaddingValid, DepthMultiplier: 1}
	checkOneNode(t, OpDepthwiseConv2D, p, in, out, func(in, out *Tensor) {
		mustRef(t, evalDepthwiseConv2DRef(in, w, bias, out, p))
	}, w, bias)
	want := []int8{1, 20, 2, 40, 3, 60, 4, 80}
	for i := range want {
		if out.I8[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out.I8[i], want[i])
		}
	}
}

func TestReluQuantizedClampsAtZeroPoint(t *testing.T) {
	q := QuantParams{Scale: 0.5, ZeroPoint: -10}
	in := &Tensor{Type: Int8, Shape: []int{4}, Quant: &q, I8: []int8{-128, -11, -10, 50}}
	out := &Tensor{Type: Int8, Shape: []int{4}, Quant: &q}
	checkOneNode(t, OpRelu, nil, in, out, func(in, out *Tensor) {
		for i, v := range in.I8 {
			out.I8[i] = max(v, int8(q.ZeroPoint))
		}
	})
	want := []int8{-10, -10, -10, 50}
	for i := range want {
		if out.I8[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out.I8[i], want[i])
		}
	}
}

func TestSoftmaxFloat(t *testing.T) {
	in := &Tensor{Type: Float32, Shape: []int{1, 3}, F32: []float32{1, 2, 3}}
	out := &Tensor{Type: Float32, Shape: []int{1, 3}}
	checkOneNode(t, OpSoftmax, SoftmaxParams{Beta: 1}, in, out, func(in, out *Tensor) {
		mustRef(t, evalSoftmaxRef(in, out, SoftmaxParams{Beta: 1}))
	})
	var sum float64
	for _, v := range out.F32 {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if !(out.F32[2] > out.F32[1] && out.F32[1] > out.F32[0]) {
		t.Fatal("softmax not monotone")
	}
}

func TestSoftmaxInt8(t *testing.T) {
	q := QuantParams{Scale: 0.1, ZeroPoint: 0}
	oq := SoftmaxOutputParams()
	in := &Tensor{Type: Int8, Shape: []int{1, 4}, Quant: &q, I8: []int8{0, 10, 20, 30}}
	out := &Tensor{Type: Int8, Shape: []int{1, 4}, Quant: &oq}
	checkOneNode(t, OpSoftmax, SoftmaxParams{Beta: 1}, in, out, func(in, out *Tensor) {
		mustRef(t, evalSoftmaxRef(in, out, SoftmaxParams{Beta: 1}))
	})
	// Dequantized outputs approximately sum to 1 and are ordered.
	var sum float64
	prev := -1.0
	for _, v := range out.I8 {
		p := oq.Dequantize(v)
		if p < prev-1e-9 {
			t.Fatal("int8 softmax not monotone")
		}
		prev = p
		sum += p
	}
	if math.Abs(sum-1) > 0.05 {
		t.Fatalf("int8 softmax sums to %v", sum)
	}
	if Argmax(out) != 3 {
		t.Fatalf("argmax = %d", Argmax(out))
	}
}

func TestMaxAndAvgPool(t *testing.T) {
	unit := QuantParams{Scale: 1, ZeroPoint: 0}
	p := PoolParams{FilterH: 2, FilterW: 2, StrideH: 2, StrideW: 2, Padding: PaddingValid}
	for _, c := range []struct {
		op   OpCode
		in   *Tensor
		want float64
	}{
		{OpMaxPool2D, &Tensor{Type: Int8, Shape: []int{1, 2, 2, 1}, Quant: &unit, I8: []int8{1, 3, 5, 7}}, 7},
		{OpAvgPool2D, &Tensor{Type: Int8, Shape: []int{1, 2, 2, 1}, Quant: &unit, I8: []int8{1, 3, 5, 7}}, 4}, // (1+3+5+7)/4
		{OpAvgPool2D, &Tensor{Type: Float32, Shape: []int{1, 2, 2, 1}, F32: []float32{1, 3, 5, 7}}, 4},
	} {
		out := &Tensor{Type: c.in.Type, Shape: []int{1, 1, 1, 1}, Quant: c.in.Quant}
		invokeOneNode(t, c.op, p, c.in, out)
		if got := tensorValue(out, 0); got != c.want {
			t.Fatalf("%v %v = %v, want %v", c.in.Type, c.op, got, c.want)
		}
	}
}

// tensorValue reads element i of an int8 or float32 tensor as a float64.
func tensorValue(t *Tensor, i int) float64 {
	if t.Type == Int8 {
		return float64(t.I8[i])
	}
	return float64(t.F32[i])
}

func TestReshapePreservesData(t *testing.T) {
	in := &Tensor{Type: Int8, Shape: []int{2, 3}, I8: []int8{1, 2, 3, 4, 5, 6}}
	out := &Tensor{Type: Int8, Shape: []int{6}}
	invokeOneNode(t, OpReshape, nil, in, out)
	for i := range in.I8 {
		if out.I8[i] != in.I8[i] {
			t.Fatal("reshape altered data")
		}
	}
	bad := &Tensor{Type: Int8, Shape: []int{5}}
	if err := oneNodeModel(OpReshape, nil, in, bad).Validate(); err == nil {
		t.Fatal("element count mismatch accepted")
	}
}
