package tflm

import (
	"fmt"
	"math"
	"slices"
)

// OpCode enumerates the supported operators.
type OpCode uint8

// Supported operators.
const (
	OpConv2D OpCode = iota
	OpDepthwiseConv2D
	OpFullyConnected
	OpSoftmax
	OpReshape
	OpMaxPool2D
	OpAvgPool2D
	OpRelu // standalone activation (fused activations live in op params)
)

// String names the op.
func (o OpCode) String() string {
	switch o {
	case OpConv2D:
		return "Conv2D"
	case OpDepthwiseConv2D:
		return "DepthwiseConv2D"
	case OpFullyConnected:
		return "FullyConnected"
	case OpSoftmax:
		return "Softmax"
	case OpReshape:
		return "Reshape"
	case OpMaxPool2D:
		return "MaxPool2D"
	case OpAvgPool2D:
		return "AvgPool2D"
	case OpRelu:
		return "Relu"
	default:
		return fmt.Sprintf("OpCode(%d)", uint8(o))
	}
}

// Padding selects the convolution/pooling padding scheme.
type Padding uint8

// Padding schemes, matching TensorFlow semantics.
const (
	PaddingSame Padding = iota
	PaddingValid
)

// Activation is a fused activation function.
type Activation uint8

// Fused activations.
const (
	ActNone Activation = iota
	ActReLU
	ActReLU6
)

// Conv2DParams parameterizes Conv2D and DepthwiseConv2D. Filters are OHWI
// for Conv2D and 1HWC (channel multiplier folded into C) for depthwise.
type Conv2DParams struct {
	// StrideH and StrideW are the vertical/horizontal strides.
	StrideH, StrideW int
	// Padding selects SAME or VALID edge handling.
	Padding Padding
	// Activation is the fused post-accumulation activation.
	Activation Activation
	// DepthMultiplier applies to DepthwiseConv2D only.
	DepthMultiplier int
}

// FullyConnectedParams parameterizes FullyConnected; weights are [out, in].
type FullyConnectedParams struct {
	// Activation is the fused post-accumulation activation.
	Activation Activation
}

// SoftmaxParams parameterizes Softmax.
type SoftmaxParams struct {
	// Beta scales the logits before exponentiation (1.0 is standard).
	Beta float64
}

// PoolParams parameterizes the pooling ops.
type PoolParams struct {
	// FilterH and FilterW are the pooling window dimensions.
	FilterH, FilterW int
	// StrideH and StrideW are the window strides.
	StrideH, StrideW int
	// Padding selects SAME or VALID edge handling.
	Padding Padding
}

// ReshapeParams carries the target shape (one dimension may be -1).
type ReshapeParams struct {
	// NewShape is the target shape; one dimension may be -1 (inferred).
	NewShape []int
}

// Node is one operator application: it reads Inputs and writes Outputs
// (indices into the model's tensor table).
type Node struct {
	// Op selects the operator.
	Op OpCode
	// Inputs and Outputs index the model's tensor table.
	Inputs, Outputs []int
	// Params is the op-specific parameter struct (Conv2DParams etc.).
	Params any
}

// Model is a dataflow graph plus its tensor table, the unit that gets
// serialized, encrypted, provisioned and executed.
type Model struct {
	// Description is free-form vendor metadata.
	Description string
	// Version is the model version the vendor licenses; the nonce-based
	// rollback protection of §V is keyed on it.
	Version uint64
	// Tensors is the tensor table Node indices refer to.
	Tensors []*Tensor
	// Nodes is the operator list in execution order.
	Nodes []Node
	// Inputs and Outputs index the model's external interface tensors.
	Inputs, Outputs []int
}

// Tensor returns tensor i (panics on bad index, which indicates a malformed
// graph caught at validation time).
func (m *Model) Tensor(i int) *Tensor { return m.Tensors[i] }

// Clone returns a copy of the model that shares constant (weight/bias)
// tensors with the receiver but carries fresh, unallocated non-constant
// tensors. Weights are immutable at inference time, so multiple
// interpreters — one per pipeline worker — can run concurrently over clones
// of one model without duplicating the weight storage.
func (m *Model) Clone() *Model {
	out := &Model{
		Description: m.Description,
		Version:     m.Version,
		Tensors:     make([]*Tensor, len(m.Tensors)),
		Nodes:       append([]Node(nil), m.Nodes...),
		Inputs:      append([]int(nil), m.Inputs...),
		Outputs:     append([]int(nil), m.Outputs...),
	}
	for i, t := range m.Tensors {
		if t.IsConst {
			out.Tensors[i] = t
			continue
		}
		out.Tensors[i] = &Tensor{
			Name:        t.Name,
			Type:        t.Type,
			Shape:       append([]int(nil), t.Shape...),
			Quant:       t.Quant,
			ArenaOffset: -1,
		}
	}
	return out
}

// Validate checks structural invariants — index ranges, constant tensors
// allocated, quantization parameters sane, every tensor written once and
// only after the tensors it reads, IO lists sane — and holds every node to
// its kernel's rules (checkNodeSignature, checkNode). A model that
// validates runs: Invoke has no failure path of its own.
func (m *Model) Validate() error {
	inRange := func(i int) bool { return i >= 0 && i < len(m.Tensors) }
	produced := make([]bool, len(m.Tensors))
	for i, t := range m.Tensors {
		if t == nil {
			return fmt.Errorf("tflm: tensor %d is nil", i)
		}
		if t.IsConst {
			if !t.Allocated() {
				return fmt.Errorf("tflm: constant tensor %q has no data", t.Name)
			}
			produced[i] = true
		}
		if t.NumElements() <= 0 || slices.ContainsFunc(t.Shape, func(d int) bool { return d <= 0 }) {
			return fmt.Errorf("tflm: tensor %q has empty shape %v", t.Name, t.Shape)
		}
		if q := t.Quant; q != nil {
			if !(q.Scale > 0) || math.IsInf(q.Scale, 0) {
				return fmt.Errorf("tflm: tensor %q has quantization scale %v", t.Name, q.Scale)
			}
			if t.Type == Int8 && (q.ZeroPoint < -128 || q.ZeroPoint > 127) {
				return fmt.Errorf("tflm: int8 tensor %q has zero point %d", t.Name, q.ZeroPoint)
			}
		}
	}
	for _, i := range m.Inputs {
		if !inRange(i) {
			return fmt.Errorf("tflm: input index %d out of range", i)
		}
		if m.Tensors[i].IsConst {
			return fmt.Errorf("tflm: input %q is constant", m.Tensors[i].Name)
		}
		produced[i] = true
	}
	for ni, n := range m.Nodes {
		if err := checkNodeSignature(n); err != nil {
			return fmt.Errorf("tflm: node %d: %w", ni, err)
		}
		for _, i := range n.Inputs {
			if !inRange(i) {
				return fmt.Errorf("tflm: node %d (%v) input index %d out of range", ni, n.Op, i)
			}
			if !produced[i] {
				return fmt.Errorf("tflm: node %d (%v) reads tensor %q before it is produced", ni, n.Op, m.Tensors[i].Name)
			}
		}
		for _, i := range n.Outputs {
			if !inRange(i) {
				return fmt.Errorf("tflm: node %d (%v) output index %d out of range", ni, n.Op, i)
			}
			if produced[i] {
				return fmt.Errorf("tflm: node %d (%v) writes tensor %q, already a constant, a model input or an earlier output", ni, n.Op, m.Tensors[i].Name)
			}
			produced[i] = true
		}
		if err := checkNode(m, n); err != nil {
			return fmt.Errorf("tflm: node %d (%v): %w", ni, n.Op, err)
		}
	}
	for _, i := range m.Outputs {
		if !inRange(i) {
			return fmt.Errorf("tflm: output index %d out of range", i)
		}
		if !produced[i] {
			return fmt.Errorf("tflm: output %q never produced", m.Tensors[i].Name)
		}
	}
	if len(m.Inputs) == 0 || len(m.Outputs) == 0 {
		return fmt.Errorf("tflm: model needs at least one input and one output")
	}
	return nil
}

// WeightBytes returns the total size of constant tensor data, the number the
// paper's "compressed model is about 49 kB" claim refers to (E3).
func (m *Model) WeightBytes() int {
	total := 0
	for _, t := range m.Tensors {
		if t.IsConst {
			total += t.ByteSize()
		}
	}
	return total
}

// NumMACs estimates multiply-accumulate operations for one inference, the
// basis of the cycle-cost model.
func (m *Model) NumMACs() uint64 {
	var total uint64
	for _, n := range m.Nodes {
		total += nodeMACs(m, n)
	}
	return total
}

func nodeMACs(m *Model, n Node) uint64 {
	switch n.Op {
	case OpConv2D:
		out := m.Tensor(n.Outputs[0])
		w := m.Tensor(n.Inputs[1])
		// out elems × filter volume (KH*KW*Cin)
		return uint64(out.NumElements()) * uint64(w.Dim(1)*w.Dim(2)*w.Dim(3))
	case OpDepthwiseConv2D:
		out := m.Tensor(n.Outputs[0])
		w := m.Tensor(n.Inputs[1])
		return uint64(out.NumElements()) * uint64(w.Dim(1)*w.Dim(2))
	case OpFullyConnected:
		w := m.Tensor(n.Inputs[1])
		return uint64(w.Dim(0)) * uint64(w.Dim(1))
	default:
		return 0
	}
}
