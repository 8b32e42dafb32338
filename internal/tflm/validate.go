package tflm

import "fmt"

// The loader contract: Model.Validate accepts exactly the graphs Invoke
// runs. checkNodeSignature fixes a node's arity and params type; checkNode
// then holds each node's tensors to every rule its kernel relies on —
// dtypes, ranks, quantization, constant weights, geometry — so prepNodes
// builds an exec for every node without a failure path, and the kernels
// carry no runtime type, shape or quantization checks.

// checkNodeSignature checks a node against its op's signature: the op is
// known, it has the op's input and output count, and its Params has the
// op's parameter type (nil where the op takes none or has defaults).
func checkNodeSignature(n Node) error {
	ins, paramsOK := 1, false
	switch n.Op {
	case OpConv2D, OpDepthwiseConv2D:
		ins = 3
		_, paramsOK = n.Params.(Conv2DParams)
	case OpFullyConnected:
		ins = 3
		_, paramsOK = n.Params.(FullyConnectedParams)
	case OpSoftmax:
		_, paramsOK = n.Params.(SoftmaxParams)
		paramsOK = paramsOK || n.Params == nil
	case OpReshape:
		_, paramsOK = n.Params.(ReshapeParams)
		paramsOK = paramsOK || n.Params == nil
	case OpMaxPool2D, OpAvgPool2D:
		_, paramsOK = n.Params.(PoolParams)
	case OpRelu:
		paramsOK = n.Params == nil
	default:
		return fmt.Errorf("unknown op %v", n.Op)
	}
	if len(n.Inputs) != ins || len(n.Outputs) != 1 {
		return fmt.Errorf("%v takes %d inputs and 1 output, has %d and %d", n.Op, ins, len(n.Inputs), len(n.Outputs))
	}
	if !paramsOK {
		return fmt.Errorf("%v cannot take params of type %T", n.Op, n.Params)
	}
	return nil
}

// checkNode checks a node that passed checkNodeSignature, and whose tensor
// indices are in range, against the rules of its kernel.
func checkNode(m *Model, n Node) error {
	in, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0])
	switch n.Op {
	case OpConv2D, OpDepthwiseConv2D:
		return checkConv(m, n, in, out)
	case OpFullyConnected:
		w, bias := m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2])
		if err := checkLinear(in, w, bias, out, n.Params.(FullyConnectedParams).Activation); err != nil {
			return err
		}
		if len(w.Shape) != 2 {
			return fmt.Errorf("FullyConnected weights %q are rank %d, want 2", w.Name, len(w.Shape))
		}
		batches, outN, inN := fcGeom(in, w)
		if bias.NumElements() != outN {
			return fmt.Errorf("FullyConnected bias %q has %d elements, want %d", bias.Name, bias.NumElements(), outN)
		}
		if in.NumElements()%inN != 0 {
			return fmt.Errorf("FullyConnected input %d elements not divisible by %d", in.NumElements(), inN)
		}
		if out.NumElements() != batches*outN {
			return fmt.Errorf("FullyConnected output %v, want %d×%d", out.Shape, batches, outN)
		}
		return nil
	case OpSoftmax:
		if len(in.Shape) == 0 {
			return fmt.Errorf("Softmax input %q is rank 0", in.Name)
		}
		if err := checkActivation(in); err != nil {
			return err
		}
		if err := checkActivation(out); err != nil {
			return err
		}
		return checkSameSize(in, out)
	case OpReshape:
		if in.Type != out.Type {
			return fmt.Errorf("Reshape from %v to %v", in.Type, out.Type)
		}
		return checkSameSize(in, out)
	case OpRelu:
		if err := checkActivation(in); err != nil {
			return err
		}
		if out.Type != in.Type {
			return fmt.Errorf("Relu from %v to %v", in.Type, out.Type)
		}
		return checkSameSize(in, out)
	default: // OpMaxPool2D, OpAvgPool2D
		p := n.Params.(PoolParams)
		if err := checkActivation(in); err != nil {
			return err
		}
		if out.Type != in.Type {
			return fmt.Errorf("%v from %v to %v", n.Op, in.Type, out.Type)
		}
		if err := checkRank4(in, out); err != nil {
			return err
		}
		if p.FilterH <= 0 || p.FilterW <= 0 || p.FilterH > in.Dim(1) || p.FilterW > in.Dim(2) {
			return fmt.Errorf("%v window %dx%d does not fit input %v", n.Op, p.FilterH, p.FilterW, in.Shape)
		}
		if err := checkWindow(n.Op, p.StrideH, p.StrideW, p.Padding); err != nil {
			return err
		}
		return checkOutShape(n.Op, out, windowGeom(m, n))
	}
}

// checkConv checks a Conv2D or DepthwiseConv2D node.
func checkConv(m *Model, n Node, in, out *Tensor) error {
	p := n.Params.(Conv2DParams)
	w, bias := m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2])
	if err := checkLinear(in, w, bias, out, p.Activation); err != nil {
		return err
	}
	if err := checkRank4(in, w, out); err != nil {
		return err
	}
	if err := checkWindow(n.Op, p.StrideH, p.StrideW, p.Padding); err != nil {
		return err
	}
	g := windowGeom(m, n)
	if n.Op == OpConv2D && w.Dim(3) != g.inC {
		return fmt.Errorf("Conv2D filter input channels %d != input channels %d", w.Dim(3), g.inC)
	}
	if n.Op == OpDepthwiseConv2D {
		if in.Type != Int8 {
			return fmt.Errorf("DepthwiseConv2D input %q is %v, want int8", in.Name, in.Type)
		}
		mul := max(p.DepthMultiplier, 1)
		if w.Dim(0) != 1 || g.outC%g.inC != 0 || g.outC/g.inC != mul {
			return fmt.Errorf("DepthwiseConv2D filter %v does not fit %d input channels × multiplier %d", w.Shape, g.inC, mul)
		}
	}
	if bias.NumElements() != g.outC {
		return fmt.Errorf("%v bias %q has %d elements, want %d", n.Op, bias.Name, bias.NumElements(), g.outC)
	}
	if err := checkOutShape(n.Op, out, g); err != nil {
		return err
	}
	// A float Conv2D owns an im2col column slab of this size; the bound
	// holds for every Conv2D.
	if n.Op == OpConv2D && int64(g.batches*g.M)*int64(g.K) > maxTensorElements {
		return fmt.Errorf("Conv2D im2col scratch %d×%d exceeds %d elements", g.batches*g.M, g.K, maxTensorElements)
	}
	// An int8 Conv2D owns a padded input image (convPrep), which padding
	// can make far larger than the input.
	if rows, cols := g.paddedDims(); n.Op == OpConv2D && in.Type == Int8 &&
		(int64(rows)*int64(cols) > maxTensorElements || int64(rows*cols)*int64(g.batches*g.inC) > maxTensorElements) {
		return fmt.Errorf("Conv2D padded input image %d×%d×%d exceeds %d elements", rows, cols, g.inC, maxTensorElements)
	}
	return nil
}

// checkLinear checks the tensors of a conv or fully-connected node: the
// weights and output share the input's dtype, the bias is rank 1 and int32
// (int8 graphs) or float32, weights and bias are model constants — prep
// folds their contents into accumulator seeds and weight panels once — the
// fused activation is known, and an int8 node's requantization multiplier
// is representable.
func checkLinear(in, w, bias, out *Tensor, act Activation) error {
	if err := checkActivation(in); err != nil {
		return err
	}
	if w.Type != in.Type || out.Type != in.Type {
		return fmt.Errorf("weights %q and output %q must be %v like the input, are %v and %v", w.Name, out.Name, in.Type, w.Type, out.Type)
	}
	biasType := Float32
	if in.Type == Int8 {
		biasType = Int32
	}
	if bias.Type != biasType || len(bias.Shape) != 1 {
		return fmt.Errorf("bias %q is %v%v, want rank-1 %v", bias.Name, bias.Type, bias.Shape, biasType)
	}
	if !w.IsConst || !bias.IsConst {
		return fmt.Errorf("weights %q and bias %q must be model constants", w.Name, bias.Name)
	}
	if act > ActReLU6 {
		return fmt.Errorf("unknown fused activation %d", act)
	}
	if in.Type == Int8 {
		if _, err := requantMultiplier(in, w, out); err != nil {
			return err
		}
	}
	return nil
}

// checkActivation checks a tensor an arithmetic kernel reads or writes: it
// is float32, or int8 with quantization parameters.
func checkActivation(t *Tensor) error {
	switch {
	case t.Type == Float32:
		return nil
	case t.Type != Int8:
		return fmt.Errorf("tensor %q is %v, want int8 or float32", t.Name, t.Type)
	case t.Quant == nil:
		return fmt.Errorf("int8 tensor %q lacks quantization parameters", t.Name)
	}
	return nil
}

// checkRank4 checks that every tensor is NHWC.
func checkRank4(ts ...*Tensor) error {
	for _, t := range ts {
		if len(t.Shape) != 4 {
			return fmt.Errorf("tensor %q is rank %d, want 4", t.Name, len(t.Shape))
		}
	}
	return nil
}

// checkWindow checks the strides and padding of a sliding-window node.
func checkWindow(op OpCode, strideH, strideW int, pad Padding) error {
	if strideH <= 0 || strideW <= 0 {
		return fmt.Errorf("%v stride %dx%d invalid", op, strideH, strideW)
	}
	if pad != PaddingSame && pad != PaddingValid {
		return fmt.Errorf("%v unknown padding %d", op, pad)
	}
	return nil
}

// checkOutShape checks a sliding-window node's output against its geometry.
func checkOutShape(op OpCode, out *Tensor, g convGeom) error {
	if want := []int{g.batches, g.outH, g.outW, g.outC}; !out.ShapeEquals(want) {
		return fmt.Errorf("%v output shape %v, want %v", op, out.Shape, want)
	}
	return nil
}

// checkSameSize checks an elementwise node's element counts.
func checkSameSize(in, out *Tensor) error {
	if in.NumElements() != out.NumElements() {
		return fmt.Errorf("output %q has %d elements, input %q %d", out.Name, out.NumElements(), in.Name, in.NumElements())
	}
	return nil
}

// windowGeom resolves the sliding-window geometry of a Conv2D,
// DepthwiseConv2D or pool node with TensorFlow SAME/VALID semantics. It
// computes and does not check: checkNode compares the result with the
// output shape once, at load.
func windowGeom(m *Model, n Node) convGeom {
	in := m.Tensor(n.Inputs[0])
	g := convGeom{batches: in.Dim(0), inH: in.Dim(1), inW: in.Dim(2), inC: in.Dim(3)}
	var pad Padding
	switch p := n.Params.(type) {
	case Conv2DParams:
		w := m.Tensor(n.Inputs[1])
		g.kH, g.kW, g.strideH, g.strideW, pad = w.Dim(1), w.Dim(2), p.StrideH, p.StrideW, p.Padding
		g.outC = w.Dim(0)
		if n.Op == OpDepthwiseConv2D {
			g.outC = w.Dim(3)
		}
	case PoolParams:
		g.kH, g.kW, g.strideH, g.strideW, pad = p.FilterH, p.FilterW, p.StrideH, p.StrideW, p.Padding
		g.outC = g.inC
	}
	g.outH, g.padT = convOutputSize(g.inH, g.kH, g.strideH, pad)
	g.outW, g.padL = convOutputSize(g.inW, g.kW, g.strideW, pad)
	g.K = g.kH * g.kW * g.inC
	g.M = g.outH * g.outW
	return g
}

// fcGeom resolves FullyConnected shapes: weights [outN, inN], the input's
// elements taken as batches rows of inN.
func fcGeom(in, w *Tensor) (batches, outN, inN int) {
	outN, inN = w.Dim(0), w.Dim(1)
	return in.NumElements() / inN, outN, inN
}
