package tflm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// singleOpModel is a valid model of one node of op over tensors of dtype
// typ (int8 with int32 bias, or float32) — but for the int8-only depthwise
// convolution — the base the table tests mutate.
func singleOpModel(t *testing.T, op OpCode, typ DType) *Model {
	t.Helper()
	if op == OpDepthwiseConv2D {
		typ = Int8
	}
	b := NewBuilder("single "+op.String(), 1)
	act := func(name string, shape ...int) int {
		x := &Tensor{Name: name, Type: typ, Shape: shape}
		if typ == Int8 {
			x.Quant = &QuantParams{Scale: 0.5, ZeroPoint: -3}
		}
		return b.Tensor(x)
	}
	weights := func(shape ...int) int { return b.Const(constTensor("w", typ, shape...)) }
	bias := func(n int) int {
		if typ == Int8 {
			return b.Const(constTensor("b", Int32, n))
		}
		return b.Const(constTensor("b", Float32, n))
	}
	var in, out int
	switch op {
	case OpConv2D:
		in, out = act("in", 1, 4, 4, 1), act("out", 1, 4, 4, 2)
		b.Node(op, Conv2DParams{StrideH: 1, StrideW: 1}, []int{in, weights(2, 3, 3, 1), bias(2)}, []int{out})
	case OpDepthwiseConv2D:
		in, out = act("in", 1, 4, 4, 2), act("out", 1, 4, 4, 2)
		b.Node(op, Conv2DParams{StrideH: 1, StrideW: 1, DepthMultiplier: 1}, []int{in, weights(1, 3, 3, 2), bias(2)}, []int{out})
	case OpFullyConnected:
		in, out = act("in", 1, 4), act("out", 1, 3)
		b.Node(op, FullyConnectedParams{}, []int{in, weights(3, 4), bias(3)}, []int{out})
	case OpSoftmax:
		in, out = act("in", 1, 3), act("out", 1, 3)
		b.Node(op, SoftmaxParams{Beta: 1}, []int{in}, []int{out})
	case OpReshape:
		in, out = act("in", 1, 2, 2), act("out", 1, 4)
		b.Node(op, ReshapeParams{NewShape: []int{1, 4}}, []int{in}, []int{out})
	case OpMaxPool2D, OpAvgPool2D:
		in, out = act("in", 1, 4, 4, 1), act("out", 1, 2, 2, 1)
		b.Node(op, PoolParams{FilterH: 2, FilterW: 2, StrideH: 2, StrideW: 2, Padding: PaddingValid}, []int{in}, []int{out})
	case OpRelu:
		in, out = act("in", 1, 4), act("out", 1, 4)
		b.Node(op, nil, []int{in}, []int{out})
	default:
		t.Fatalf("no base model for %v", op)
	}
	b.Input(in)
	b.Output(out)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	return m
}

// constTensor is a constant of dtype typ filled with small nonzero values,
// quantized when int8.
func constTensor(name string, typ DType, shape ...int) *Tensor {
	c := &Tensor{Name: name, Type: typ, Shape: shape, IsConst: true}
	if typ == Int8 {
		c.Quant = &QuantParams{Scale: 0.25}
	}
	c.Alloc()
	for i := 0; i < c.NumElements(); i++ {
		v := i%5 - 2
		switch typ {
		case Int8:
			c.I8[i] = int8(v)
		case Int32:
			c.I32[i] = int32(v)
		case Float32:
			c.F32[i] = float32(v)
		}
	}
	return c
}

// malformedGraphs are graphs whose node signatures are well formed but
// whose tensors break a rule a kernel relies on. Before Validate checked
// those rules, each of them loaded and then panicked, ran with a
// meaningless or unsupported geometry, or failed at every Invoke.
var malformedGraphs = []struct {
	name string
	op   OpCode
	typ  DType
	// mutate breaks the base singleOpModel(op, typ), whose one node is
	// m.Nodes[0].
	mutate func(m *Model)
}{
	{"conv_int8_float_bias", OpConv2D, Int8, func(m *Model) { m.Tensors[m.Nodes[0].Inputs[2]] = constTensor("b", Float32, 2) }},
	{"conv_float_int8_weights", OpConv2D, Float32, func(m *Model) { m.Tensors[m.Nodes[0].Inputs[1]] = constTensor("w", Int8, 2, 3, 3, 1) }},
	{"fc_float_int8_weights", OpFullyConnected, Float32, func(m *Model) { m.Tensors[m.Nodes[0].Inputs[1]] = constTensor("w", Int8, 3, 4) }},
	{"depthwise_float_bias", OpDepthwiseConv2D, Int8, func(m *Model) { m.Tensors[m.Nodes[0].Inputs[2]] = constTensor("b", Float32, 2) }},
	{"relu_int8_to_float", OpRelu, Int8, func(m *Model) { retype(m.Tensor(m.Nodes[0].Outputs[0]), Float32) }},
	{"maxpool_int8_to_float", OpMaxPool2D, Int8, func(m *Model) { retype(m.Tensor(m.Nodes[0].Outputs[0]), Float32) }},
	{"softmax_rank0", OpSoftmax, Float32, func(m *Model) {
		m.Tensor(m.Nodes[0].Inputs[0]).Shape = []int{}
		m.Tensor(m.Nodes[0].Outputs[0]).Shape = []int{}
	}},
	{"conv_rank2_filter", OpConv2D, Float32, func(m *Model) { m.Tensors[m.Nodes[0].Inputs[1]] = constTensor("w", Float32, 2, 9) }},
	{"fc_zero_output_scale", OpFullyConnected, Int8, func(m *Model) { m.Tensor(m.Nodes[0].Outputs[0]).Quant = &QuantParams{} }},
	{"graph_produced_weights", OpFullyConnected, Int8, func(m *Model) {
		// A Reshape of a second model input produces the weights.
		w := m.Tensor(m.Nodes[0].Inputs[1])
		m.Tensors = append(m.Tensors,
			&Tensor{Name: "w_src", Type: w.Type, Shape: w.Shape, Quant: w.Quant},
			&Tensor{Name: "w_dyn", Type: w.Type, Shape: w.Shape, Quant: w.Quant})
		src, dyn := len(m.Tensors)-2, len(m.Tensors)-1
		m.Inputs = append(m.Inputs, src)
		m.Nodes[0].Inputs[1] = dyn
		m.Nodes = append([]Node{{Op: OpReshape, Inputs: []int{src}, Outputs: []int{dyn}}}, m.Nodes...)
	}},
	{"input_zero_point_200", OpConv2D, Int8, func(m *Model) {
		m.Tensor(m.Nodes[0].Inputs[0]).Quant = &QuantParams{Scale: 0.5, ZeroPoint: 200}
	}},
	{"nan_scale", OpFullyConnected, Int8, func(m *Model) {
		m.Tensor(m.Nodes[0].Inputs[1]).Quant = &QuantParams{Scale: math.NaN()}
	}},
	{"pool_rank3_input", OpMaxPool2D, Float32, func(m *Model) { m.Tensor(m.Nodes[0].Inputs[0]).Shape = []int{1, 4, 4} }},
	{"conv_int8_padded_image_2^26", OpConv2D, Int8, func(m *Model) {
		// 8192 input bytes and 8192 weights, but SAME padding of an
		// 8192-row kernel over an 8192-wide row needs an 8192×8192 image.
		n := &m.Nodes[0]
		n.Params = Conv2DParams{StrideH: 1, StrideW: 8192, Padding: PaddingSame}
		m.Tensor(n.Inputs[0]).Shape = []int{1, 1, 8192, 1}
		m.Tensors[n.Inputs[1]] = constTensor("w", Int8, 1, 8192, 1, 1)
		m.Tensors[n.Inputs[2]] = constTensor("b", Int32, 1)
		m.Tensor(n.Outputs[0]).Shape = []int{1, 1, 1, 1}
	}},
}

// retype gives a non-constant tensor another dtype, with quantization
// parameters exactly when it becomes int8.
func retype(t *Tensor, typ DType) {
	t.Type = typ
	t.Quant = nil
	if typ == Int8 {
		t.Quant = &QuantParams{Scale: 0.5}
	}
}

// wrongParams returns a params value of a type op does not take.
func wrongParams(op OpCode) any {
	switch op {
	case OpConv2D, OpDepthwiseConv2D:
		return FullyConnectedParams{}
	case OpMaxPool2D, OpAvgPool2D:
		return nil
	default:
		return Conv2DParams{StrideH: 1, StrideW: 1}
	}
}

// errPanicked marks a loadAndRun error that was a recovered panic.
var errPanicked = errors.New("panicked")

// loadAndRun takes m the way a served model goes: NewInterpreter, then
// Invoke with the metering of NodeCycles. A panic anywhere on that path is
// returned as an errPanicked error; a loaded node without an exec is an
// error too.
func loadAndRun(m *Model) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errPanicked, r)
		}
	}()
	ip, err := NewInterpreter(m)
	if err != nil {
		return err
	}
	for ni, ex := range ip.execs {
		if ex == nil {
			return fmt.Errorf("node %d has no exec", ni)
		}
	}
	ip.SetMeter(&countingMeter{})
	return ip.Invoke()
}

// TestValidateRejectsMalformedNodes: for every op, a node with too few or
// too many inputs, no output, or params of the wrong type — and a node with
// an unknown op — fails Validate, and NewInterpreter returns that error
// instead of panicking in prepNodes or NodeCycles. So does every graph of
// malformedGraphs, and Decode rejects its encoding with the same error.
func TestValidateRejectsMalformedNodes(t *testing.T) {
	ops := []OpCode{OpConv2D, OpDepthwiseConv2D, OpFullyConnected, OpSoftmax, OpReshape, OpMaxPool2D, OpAvgPool2D, OpRelu}
	mutations := []struct {
		name   string
		mutate func(n *Node)
	}{
		{"short_inputs", func(n *Node) { n.Inputs = n.Inputs[:len(n.Inputs)-1] }},
		{"one_input", func(n *Node) { n.Inputs = n.Inputs[:1] }},
		{"extra_input", func(n *Node) { n.Inputs = append(n.Inputs, n.Inputs[0]) }},
		{"no_outputs", func(n *Node) { n.Outputs = nil }},
		{"wrong_params", func(n *Node) { n.Params = wrongParams(n.Op) }},
		{"unknown_op", func(n *Node) { n.Op = OpRelu + 1 }},
	}
	for _, op := range ops {
		for _, typ := range []DType{Int8, Float32} {
			if err := loadAndRun(singleOpModel(t, op, typ)); err != nil {
				t.Fatalf("%v %v: valid base model: %v", op, typ, err)
			}
		}
		for _, mu := range mutations {
			m := singleOpModel(t, op, Float32)
			if mu.name == "one_input" && len(m.Nodes[0].Inputs) == 1 {
				continue // the op takes one input
			}
			mu.mutate(&m.Nodes[0])
			if err := m.Validate(); err == nil {
				t.Errorf("%v/%s: Validate accepted the node", op, mu.name)
			}
			if err := loadAndRun(m); err == nil || errors.Is(err, errPanicked) {
				t.Errorf("%v/%s: loading gave %v, want a validation error", op, mu.name, err)
			}
		}
	}
	for _, g := range malformedGraphs {
		m := singleOpModel(t, g.op, g.typ)
		g.mutate(m)
		verr := m.Validate()
		if verr == nil {
			t.Errorf("%s: Validate accepted the graph", g.name)
			continue
		}
		if err := loadAndRun(m); err == nil || err.Error() != verr.Error() {
			t.Errorf("%s: loading gave %v, want the validation error %v", g.name, err, verr)
		}
		blob, err := encodeModel(m)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if _, err := Decode(blob); err == nil || !strings.HasSuffix(err.Error(), verr.Error()) {
			t.Errorf("%s: Decode gave %v, want the validation error %v", g.name, err, verr)
		}
	}
}
