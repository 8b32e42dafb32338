package tflm

import (
	"errors"
	"fmt"
	"testing"
)

// singleOpModel is a valid model of one node of op (float32 but for the
// int8-only depthwise convolution), the base the signature table test
// mutates.
func singleOpModel(t *testing.T, op OpCode) *Model {
	t.Helper()
	b := NewBuilder("single "+op.String(), 1)
	f32 := func(shape ...int) int { return b.Tensor(&Tensor{Name: "t", Type: Float32, Shape: shape}) }
	konst := func(shape ...int) int {
		c := &Tensor{Name: "c", Type: Float32, Shape: shape}
		c.Alloc()
		for i := range c.F32 {
			c.F32[i] = float32(i%5) - 2
		}
		return b.Const(c)
	}
	var in, out int
	switch op {
	case OpConv2D:
		in = f32(1, 4, 4, 1)
		out = f32(1, 4, 4, 2)
		b.Node(op, Conv2DParams{StrideH: 1, StrideW: 1}, []int{in, konst(2, 3, 3, 1), konst(2)}, []int{out})
	case OpDepthwiseConv2D:
		// The depthwise kernels are int8 only.
		q := &QuantParams{Scale: 1}
		in = b.Tensor(&Tensor{Name: "in", Type: Int8, Shape: []int{1, 4, 4, 2}, Quant: q})
		out = b.Tensor(&Tensor{Name: "out", Type: Int8, Shape: []int{1, 4, 4, 2}, Quant: q})
		w := &Tensor{Name: "w", Type: Int8, Shape: []int{1, 3, 3, 2}, Quant: q}
		w.Alloc()
		bias := &Tensor{Name: "b", Type: Int32, Shape: []int{2}, Quant: q}
		bias.Alloc()
		b.Node(op, Conv2DParams{StrideH: 1, StrideW: 1, DepthMultiplier: 1}, []int{in, b.Const(w), b.Const(bias)}, []int{out})
	case OpFullyConnected:
		in = f32(1, 4)
		out = f32(1, 3)
		b.Node(op, FullyConnectedParams{}, []int{in, konst(3, 4), konst(3)}, []int{out})
	case OpSoftmax:
		in = f32(1, 3)
		out = f32(1, 3)
		b.Node(op, SoftmaxParams{Beta: 1}, []int{in}, []int{out})
	case OpReshape:
		in = f32(1, 2, 2)
		out = f32(1, 4)
		b.Node(op, ReshapeParams{NewShape: []int{1, 4}}, []int{in}, []int{out})
	case OpMaxPool2D, OpAvgPool2D:
		in = f32(1, 4, 4, 1)
		out = f32(1, 2, 2, 1)
		b.Node(op, PoolParams{FilterH: 2, FilterW: 2, StrideH: 2, StrideW: 2, Padding: PaddingValid}, []int{in}, []int{out})
	case OpRelu:
		in = f32(1, 4)
		out = f32(1, 4)
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
// returned as an errPanicked error.
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
	ip.SetMeter(&countingMeter{})
	return ip.Invoke()
}

// TestValidateRejectsMalformedNodes: for every op, a node with too few or
// too many inputs, no output, or params of the wrong type — and a node with
// an unknown op — fails Validate, and NewInterpreter returns that error
// instead of panicking in prepNodes, evalNode or NodeCycles.
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
		if err := loadAndRun(singleOpModel(t, op)); err != nil {
			t.Fatalf("%v: valid base model: %v", op, err)
		}
		for _, mu := range mutations {
			m := singleOpModel(t, op)
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
}
