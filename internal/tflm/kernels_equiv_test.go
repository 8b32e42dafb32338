package tflm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Golden-equivalence tests: the interpreter's kernels must be bit-exact
// with the scalar reference kernels in op_ref_test.go over randomized
// geometries, paddings, strides, activations and quantization parameters.
// Each case runs as a one-node model through the interpreter, so the test
// covers the code every served model runs: the prep pass, the int8
// convolution's padded image and offset table and, for int8 I/O, the batch
// plan.

// oneNodeModel wires in → op → out into a model, with consts as the node's
// weight and bias constants. It does not validate.
func oneNodeModel(op OpCode, params any, in, out *Tensor, consts ...*Tensor) *Model {
	m := &Model{Description: "one " + op.String(), Version: 1, Tensors: []*Tensor{in}, Inputs: []int{0}}
	inputs := []int{0}
	for _, c := range consts {
		c.IsConst = true
		inputs = append(inputs, len(m.Tensors))
		m.Tensors = append(m.Tensors, c)
	}
	m.Tensors = append(m.Tensors, out)
	m.Outputs = []int{len(m.Tensors) - 1}
	m.Nodes = []Node{{Op: op, Inputs: inputs, Outputs: []int{len(m.Tensors) - 1}, Params: params}}
	return m
}

// invokeOneNode loads oneNodeModel(op, params, in, out, consts...) with
// NewInterpreter and runs Invoke once; out then holds the result.
func invokeOneNode(t *testing.T, op OpCode, params any, in, out *Tensor, consts ...*Tensor) {
	t.Helper()
	ip, err := NewInterpreter(oneNodeModel(op, params, in, out, consts...))
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
}

// checkOneNode runs the one-node model the way a served model runs —
// NewInterpreter + Invoke — and requires the output to equal oracle's over
// the same input, bit for bit. out holds the result afterwards.
func checkOneNode(t *testing.T, op OpCode, params any, in, out *Tensor, oracle func(in, out *Tensor), consts ...*Tensor) {
	t.Helper()
	invokeOneNode(t, op, params, in, out, consts...)
	want := &Tensor{Name: out.Name, Type: out.Type, Shape: out.Shape, Quant: out.Quant}
	want.Alloc()
	oracle(in, want)
	requireSameData(t, "Invoke", out, want)
}

// requireSameData fails unless got and want hold the same bits.
func requireSameData(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	g, w := tensorBytes(got), tensorBytes(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d bytes, want %d", what, len(g), len(w))
	}
	size := want.Type.Size()
	for i := 0; i < len(w); i += size {
		if !bytes.Equal(g[i:i+size], w[i:i+size]) {
			t.Fatalf("%s: element %d: got bytes % x, want % x", what, i/size, g[i:i+size], w[i:i+size])
		}
	}
}

// mustRef fails the test on a reference-kernel error.
func mustRef(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("reference kernel: %v", err)
	}
}

type convCase struct {
	batches, inH, inW, inC int
	outC, kH, kW           int
	strideH, strideW       int
	pad                    Padding
	act                    Activation
}

func convCases() []convCase {
	return []convCase{
		{1, 49, 43, 1, 8, 10, 8, 2, 2, PaddingSame, ActReLU}, // paper tiny_conv layer
		{1, 7, 9, 3, 5, 3, 3, 1, 1, PaddingSame, ActNone},    // odd sizes, SAME
		{1, 7, 9, 3, 5, 3, 3, 1, 1, PaddingValid, ActNone},   // same, VALID
		{2, 12, 10, 4, 6, 5, 4, 2, 3, PaddingSame, ActReLU6}, // multi-batch, mixed strides
		{1, 5, 5, 2, 3, 5, 5, 1, 1, PaddingSame, ActReLU},    // kernel == input
		{1, 4, 4, 1, 2, 6, 6, 2, 2, PaddingSame, ActNone},    // kernel larger than input
		{3, 9, 6, 2, 4, 1, 1, 1, 1, PaddingValid, ActNone},   // 1×1 pointwise
		{1, 16, 16, 3, 7, 3, 5, 3, 2, PaddingValid, ActReLU}, // strided VALID
		{1, 10, 10, 5, 1, 2, 2, 1, 2, PaddingSame, ActReLU6}, // single filter
	}
}

func randQuantTensor(r *rand.Rand, name string, shape []int, scale float64, zp int32) *Tensor {
	t := &Tensor{Name: name, Type: Int8, Shape: shape, Quant: &QuantParams{Scale: scale, ZeroPoint: zp}}
	t.Alloc()
	for i := range t.I8 {
		t.I8[i] = int8(r.Intn(256) - 128)
	}
	return t
}

func randFloatTensor(r *rand.Rand, name string, shape []int) *Tensor {
	t := &Tensor{Name: name, Type: Float32, Shape: shape}
	t.Alloc()
	for i := range t.F32 {
		t.F32[i] = float32(r.NormFloat64())
	}
	return t
}

func convOutShape(c convCase) []int {
	outH, _ := convOutputSize(c.inH, c.kH, c.strideH, c.pad)
	outW, _ := convOutputSize(c.inW, c.kW, c.strideW, c.pad)
	return []int{c.batches, outH, outW, c.outC}
}

func TestConv2DInt8GemmMatchesRef(t *testing.T) {
	for ci, c := range convCases() {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			forEachGEMMKernel(t, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(1000 + ci)))
				inZP := int32(r.Intn(256) - 128)
				in := randQuantTensor(r, "in", []int{c.batches, c.inH, c.inW, c.inC}, 0.5+r.Float64(), inZP)
				w := randQuantTensor(r, "w", []int{c.outC, c.kH, c.kW, c.inC}, 0.01+0.2*r.Float64(), 0)
				bias := &Tensor{Name: "b", Type: Int32, Shape: []int{c.outC}}
				bias.Alloc()
				for i := range bias.I32 {
					bias.I32[i] = int32(r.Intn(2048) - 1024)
				}
				oq := &QuantParams{Scale: 0.1 + r.Float64(), ZeroPoint: int32(r.Intn(256) - 128)}
				got := &Tensor{Name: "out", Type: Int8, Shape: convOutShape(c), Quant: oq}
				p := Conv2DParams{StrideH: c.strideH, StrideW: c.strideW, Padding: c.pad, Activation: c.act}
				checkOneNode(t, OpConv2D, p, in, got, func(in, out *Tensor) {
					mustRef(t, evalConv2DInt8Ref(in, w, bias, out, p))
				}, w, bias)
			})
		})
	}
}

func TestConv2DFloatGemmMatchesRef(t *testing.T) {
	for ci, c := range convCases() {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(2000 + ci)))
			in := randFloatTensor(r, "in", []int{c.batches, c.inH, c.inW, c.inC})
			w := randFloatTensor(r, "w", []int{c.outC, c.kH, c.kW, c.inC})
			bias := randFloatTensor(r, "b", []int{c.outC})
			got := &Tensor{Name: "out", Type: Float32, Shape: convOutShape(c)}
			p := Conv2DParams{StrideH: c.strideH, StrideW: c.strideW, Padding: c.pad, Activation: c.act}
			checkOneNode(t, OpConv2D, p, in, got, func(in, out *Tensor) {
				mustRef(t, evalConv2DFloatRef(in, w, bias, out, p))
			}, w, bias)
		})
	}
}

func TestDepthwiseConv2DOptMatchesRef(t *testing.T) {
	cases := []struct {
		batches, inH, inW, inC int
		mul, kH, kW            int
		strideH, strideW       int
		pad                    Padding
		act                    Activation
	}{
		{1, 8, 8, 4, 1, 3, 3, 1, 1, PaddingSame, ActNone},
		{1, 8, 8, 4, 2, 3, 3, 1, 1, PaddingSame, ActReLU},
		{2, 11, 7, 3, 1, 5, 3, 2, 2, PaddingValid, ActNone},
		{1, 6, 6, 2, 3, 4, 4, 3, 1, PaddingSame, ActReLU6},
		{1, 5, 5, 1, 1, 7, 7, 1, 1, PaddingSame, ActNone}, // kernel larger than input
		// inC == 1 geometries ride the SWAR interior (contiguous reduction
		// axis): single and multi depth-multiplier, ragged kW % 3, strides,
		// and a large all-interior VALID sweep.
		{1, 12, 12, 1, 1, 3, 3, 1, 1, PaddingSame, ActNone},
		{1, 14, 13, 1, 4, 3, 5, 1, 1, PaddingSame, ActReLU},
		{2, 16, 11, 1, 3, 4, 7, 2, 3, PaddingSame, ActReLU6},
		{1, 20, 20, 1, 2, 5, 8, 2, 2, PaddingValid, ActNone},
	}
	for ci, c := range cases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(3000 + ci)))
			outC := c.inC * c.mul
			inZP := int32(r.Intn(256) - 128)
			in := randQuantTensor(r, "in", []int{c.batches, c.inH, c.inW, c.inC}, 0.5+r.Float64(), inZP)
			w := randQuantTensor(r, "w", []int{1, c.kH, c.kW, outC}, 0.01+0.2*r.Float64(), 0)
			bias := &Tensor{Name: "b", Type: Int32, Shape: []int{outC}}
			bias.Alloc()
			for i := range bias.I32 {
				bias.I32[i] = int32(r.Intn(2048) - 1024)
			}
			outH, _ := convOutputSize(c.inH, c.kH, c.strideH, c.pad)
			outW, _ := convOutputSize(c.inW, c.kW, c.strideW, c.pad)
			outShape := []int{c.batches, outH, outW, outC}
			oq := &QuantParams{Scale: 0.1 + r.Float64(), ZeroPoint: int32(r.Intn(256) - 128)}
			got := &Tensor{Name: "out", Type: Int8, Shape: outShape, Quant: oq}
			p := Conv2DParams{StrideH: c.strideH, StrideW: c.strideW, Padding: c.pad, Activation: c.act, DepthMultiplier: c.mul}
			checkOneNode(t, OpDepthwiseConv2D, p, in, got, func(in, out *Tensor) {
				mustRef(t, evalDepthwiseConv2DRef(in, w, bias, out, p))
			}, w, bias)
		})
	}
}

func TestFullyConnectedGemmMatchesRef(t *testing.T) {
	// The GEMM shapes cover both kernels' tails: depths 1, 3, 5 and 7 (rows
	// shorter than one 8-byte half, whose trailing rows fcRows runs from a
	// copy, at row counts either side of that boundary), 15 and 17 (a last
	// half that overlaps its predecessor) and 80/4400 (tiny_conv's conv and
	// FC, whole blocks); filter counts off the 8-filter AVX2 and 4-filter
	// SWAR panel grids; several row counts. allMin cases fill the
	// activations and weights with −128 under a nonzero input zero point,
	// the −128·−128 product corner.
	cases := []struct {
		batches, inN, outN int
		act                Activation
		allMin             bool
	}{
		{1, 17, 5, ActNone, false},
		{1, 4400, 12, ActNone, false}, // tiny_conv FC size
		{3, 64, 9, ActReLU, false},
		{2, 33, 7, ActReLU6, false},
		{1, 1, 1, ActNone, false},
		{5, 1, 13, ActNone, false},
		{7, 15, 11, ActNone, false},
		{4, 17, 9, ActReLU, false},
		{9, 80, 8, ActNone, false},
		{3, 80, 19, ActNone, false},
		{2, 4400, 3, ActNone, false},
		{6, 15, 10, ActNone, true},
		{3, 4400, 12, ActNone, true},
		{10, 1, 9, ActNone, false},
		{4, 3, 9, ActReLU, false},
		{3, 5, 6, ActNone, false},
		{2, 7, 9, ActNone, false},
	}
	for ci, c := range cases {
		t.Run(fmt.Sprintf("int8_case%d", ci), func(t *testing.T) {
			forEachGEMMKernel(t, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(4000 + ci)))
				inZP := int32(r.Intn(256) - 128)
				in := randQuantTensor(r, "in", []int{c.batches, c.inN}, 0.5+r.Float64(), inZP)
				w := randQuantTensor(r, "w", []int{c.outN, c.inN}, 0.01+0.2*r.Float64(), 0)
				if c.allMin {
					fillSlice(in.I8, -128)
					fillSlice(w.I8, -128)
					in.Quant.ZeroPoint = 37
				}
				bias := &Tensor{Name: "b", Type: Int32, Shape: []int{c.outN}}
				bias.Alloc()
				for i := range bias.I32 {
					bias.I32[i] = int32(r.Intn(2048) - 1024)
				}
				oq := &QuantParams{Scale: 0.1 + r.Float64(), ZeroPoint: int32(r.Intn(256) - 128)}
				got := &Tensor{Name: "out", Type: Int8, Shape: []int{c.batches, c.outN}, Quant: oq}
				p := FullyConnectedParams{Activation: c.act}
				checkOneNode(t, OpFullyConnected, p, in, got, func(in, out *Tensor) {
					mustRef(t, evalFullyConnectedRef(in, w, bias, out, p))
				}, w, bias)
			})
		})
		t.Run(fmt.Sprintf("float_case%d", ci), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(5000 + ci)))
			in := randFloatTensor(r, "in", []int{c.batches, c.inN})
			w := randFloatTensor(r, "w", []int{c.outN, c.inN})
			bias := randFloatTensor(r, "b", []int{c.outN})
			got := &Tensor{Name: "out", Type: Float32, Shape: []int{c.batches, c.outN}}
			p := FullyConnectedParams{Activation: c.act}
			checkOneNode(t, OpFullyConnected, p, in, got, func(in, out *Tensor) {
				mustRef(t, evalFullyConnectedRef(in, w, bias, out, p))
			}, w, bias)
		})
	}
}

// TestInterpreterInvokeMatchesRefKernels runs the whole tiny_conv graph
// through the prepped interpreter fast paths and checks the output against
// per-node reference kernel evaluation.
func TestInterpreterInvokeMatchesRefKernels(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) {
		model, err := BuildRandomTinyConv(2, 99)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := BuildRandomTinyConv(2, 99)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := NewInterpreter(model)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := NewInterpreter(ref)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		for i := range ip.Input(0).I8 {
			v := int8(r.Intn(256) - 128)
			ip.Input(0).I8[i] = v
			rp.Input(0).I8[i] = v
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
		// Evaluate the reference model with the scalar kernels, node by node.
		for _, n := range ref.Nodes {
			var err error
			switch n.Op {
			case OpConv2D:
				err = evalConv2DInt8Ref(ref.Tensor(n.Inputs[0]), ref.Tensor(n.Inputs[1]), ref.Tensor(n.Inputs[2]), ref.Tensor(n.Outputs[0]), n.Params.(Conv2DParams))
			case OpFullyConnected:
				err = evalFullyConnectedRef(ref.Tensor(n.Inputs[0]), ref.Tensor(n.Inputs[1]), ref.Tensor(n.Inputs[2]), ref.Tensor(n.Outputs[0]), n.Params.(FullyConnectedParams))
			case OpReshape:
				copy(ref.Tensor(n.Outputs[0]).I8, ref.Tensor(n.Inputs[0]).I8)
			case OpSoftmax:
				p, _ := n.Params.(SoftmaxParams)
				err = evalSoftmaxRef(ref.Tensor(n.Inputs[0]), ref.Tensor(n.Outputs[0]), p)
			default:
				t.Fatalf("unexpected op %v in tiny_conv", n.Op)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range ip.Output(0).I8 {
			if ip.Output(0).I8[i] != rp.Output(0).I8[i] {
				t.Fatalf("output %d: interpreter %d != ref %d", i, ip.Output(0).I8[i], rp.Output(0).I8[i])
			}
		}
	})
}

// TestConv2DInt8OutOfRangeZeroPoint: QuantParams.ZeroPoint is an int32, but
// an int8 tensor's zero point outside [-128, 127] cannot be the padding
// fill of the int8 convolution's image. Validate rejects such a model, and
// so does NewInterpreter.
func TestConv2DInt8OutOfRangeZeroPoint(t *testing.T) {
	for _, zp := range []int32{200, -300, 1 << 20} {
		r := rand.New(rand.NewSource(int64(zp)))
		c := convCase{1, 9, 7, 2, 4, 3, 3, 1, 1, PaddingSame, ActNone}
		in := randQuantTensor(r, "in", []int{c.batches, c.inH, c.inW, c.inC}, 0.5, zp)
		w := randQuantTensor(r, "w", []int{c.outC, c.kH, c.kW, c.inC}, 0.05, 0)
		bias := &Tensor{Name: "b", Type: Int32, Shape: []int{c.outC}}
		bias.Alloc()
		out := &Tensor{Name: "out", Type: Int8, Shape: convOutShape(c), Quant: &QuantParams{Scale: 0.3}}
		p := Conv2DParams{StrideH: c.strideH, StrideW: c.strideW, Padding: c.pad}
		m := oneNodeModel(OpConv2D, p, in, out, w, bias)
		if err := m.Validate(); err == nil {
			t.Fatalf("zp=%d: Validate accepted the model", zp)
		}
		if _, err := NewInterpreter(m); err == nil {
			t.Fatalf("zp=%d: NewInterpreter accepted the model", zp)
		}
	}
}

// TestInterpreterDynamicWeightsNotPrepped: prep bakes weight and bias
// contents into accumulator seeds and panels once, so a graph that produces
// its own weight tensor at runtime has no correct prepped form. Validate
// rejects it, and so does NewInterpreter.
func TestInterpreterDynamicWeightsNotPrepped(t *testing.T) {
	inQ := &QuantParams{Scale: 0.05, ZeroPoint: -128}
	wQ := &QuantParams{Scale: 0.02, ZeroPoint: 0}
	outQ := &QuantParams{Scale: 0.1, ZeroPoint: 3}
	x := &Tensor{Name: "x", Type: Int8, Shape: []int{1, 4}, Quant: inQ}
	wSrc := &Tensor{Name: "w_src", Type: Int8, Shape: []int{3, 4}, Quant: wQ}
	w := &Tensor{Name: "w", Type: Int8, Shape: []int{3, 4}, Quant: wQ}
	bias := &Tensor{Name: "b", Type: Int32, Shape: []int{3}, IsConst: true}
	bias.Alloc()
	out := &Tensor{Name: "out", Type: Int8, Shape: []int{1, 3}, Quant: outQ}
	m := &Model{
		Tensors: []*Tensor{x, wSrc, w, bias, out},
		Nodes: []Node{
			{Op: OpReshape, Inputs: []int{1}, Outputs: []int{2}, Params: ReshapeParams{NewShape: []int{3, 4}}},
			{Op: OpFullyConnected, Inputs: []int{0, 2, 3}, Outputs: []int{4}, Params: FullyConnectedParams{}},
		},
		Inputs:  []int{0, 1},
		Outputs: []int{4},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted graph-produced weights")
	}
	if _, err := NewInterpreter(m); err == nil {
		t.Fatal("NewInterpreter accepted graph-produced weights")
	}
}

// TestInvokeZeroAlloc: a prepped interpreter's Invoke performs no heap
// allocations, under either GEMM kernel.
func TestInvokeZeroAlloc(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) {
		model, err := BuildRandomTinyConv(1, 7)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := NewInterpreter(model)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ip.Input(0).I8 {
			ip.Input(0).I8[i] = int8(i % 251)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := ip.Invoke(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Invoke allocates %v times per run, want 0", allocs)
		}
	})
}

func TestArgmaxEmptyAndNil(t *testing.T) {
	if got := Argmax(nil); got != -1 {
		t.Fatalf("Argmax(nil) = %d, want -1", got)
	}
	empty := &Tensor{Name: "e", Type: Int8, Shape: []int{0}}
	if got := Argmax(empty); got != -1 {
		t.Fatalf("Argmax(empty) = %d, want -1", got)
	}
	unallocated := &Tensor{Name: "u", Type: Float32, Shape: []int{4}}
	if got := Argmax(unallocated); got != -1 {
		t.Fatalf("Argmax(unallocated) = %d, want -1", got)
	}
	v := &Tensor{Name: "v", Type: Int8, Shape: []int{4}}
	v.Alloc()
	copy(v.I8, []int8{-3, 9, 9, 1})
	if got := Argmax(v); got != 1 {
		t.Fatalf("Argmax = %d, want 1 (first max wins)", got)
	}
}

func TestModelCloneSharesWeightsOnly(t *testing.T) {
	m, err := BuildRandomTinyConv(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, t0 := range m.Tensors {
		t1 := c.Tensors[i]
		if t0.IsConst {
			if t0 != t1 {
				t.Fatalf("const tensor %q not shared", t0.Name)
			}
			continue
		}
		if t0 == t1 {
			t.Fatalf("activation tensor %q shared between clones", t0.Name)
		}
	}
	// Two interpreters over clones must produce independent, equal results.
	ipA, err := NewInterpreter(c)
	if err != nil {
		t.Fatal(err)
	}
	ipB, err := NewInterpreter(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ipA.Input(0).I8 {
		ipA.Input(0).I8[i] = int8(i % 127)
		ipB.Input(0).I8[i] = int8(i % 127)
	}
	if err := ipA.Invoke(); err != nil {
		t.Fatal(err)
	}
	if err := ipB.Invoke(); err != nil {
		t.Fatal(err)
	}
	for i := range ipA.Output(0).I8 {
		if ipA.Output(0).I8[i] != ipB.Output(0).I8[i] {
			t.Fatalf("clone outputs diverge at %d", i)
		}
	}
}
