package tflm

import "repro/internal/hw"

// Meter receives cycle charges for simulated work. *hw.Core implements it;
// a nil meter means pure functional execution (host-speed, unmetered).
type Meter interface {
	// Charge adds cycles of simulated work to the meter.
	Charge(cycles uint64)
}

// Interpreter executes a model. It owns the arena plan, the allocated
// activation tensors, and all kernel scratch; one interpreter serves
// repeated Invoke calls, exactly like TFLM's MicroInterpreter.
//
// At construction the interpreter preps every node into one exec, its only
// execution path: requantization multipliers are decomposed once,
// per-filter zero-point corrections (bias[oc] - inZP·Σw[oc]) are folded
// into accumulator seeds, weights are packed into the GEMM panel image, each
// int8 convolution gets its padded input image, and the float im2col and
// softmax scratch is sized to the largest node. Invoke therefore
// performs no heap allocation and no floating-point requant setup on the
// hot path. Prep relies on Model.Validate — every node's dtypes, ranks,
// quantization, geometry and constant weights were checked at load — and
// on constant tensors being immutable after construction (they are baked
// into the model).
type Interpreter struct {
	model *Model
	plan  *ArenaPlan
	meter Meter
	// execs[i] runs node i through its prepped kernel.
	execs []func()
	// Shared kernel scratch, sized at plan time to the largest consumer
	// (int8 convolutions instead own their padded input image, in their
	// convPrep, so its border is filled once; imgBytes totals those).
	colF32   []float32
	gemmX    []uint64 // gemmRows scratch: the SWAR patch and packed rows (none for AVX2)
	smLogits []float64
	smProbs  []float64
	imgBytes int
	// batch holds the stacked I/O rows built by PlanBatch.
	batch *batchPlan
}

// NewInterpreter validates the model, plans the arena, allocates activation
// storage, and preps the kernel fast paths.
func NewInterpreter(m *Model) (*Interpreter, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	plan, err := PlanArena(m)
	if err != nil {
		return nil, err
	}
	if err := plan.Check(m); err != nil {
		return nil, err
	}
	for ti := range plan.Offsets {
		m.Tensors[ti].Alloc()
	}
	ip := &Interpreter{model: m, plan: plan}
	ip.prepNodes()
	return ip, nil
}

// prepNodes builds every node's exec and sizes the shared scratch. It has no
// failure path: Validate accepted only nodes these kernels run.
func (ip *Interpreter) prepNodes() {
	m := ip.model
	ip.execs = make([]func(), len(m.Nodes))
	maxColF32, maxDepth, maxGemmX := 0, 0, 0
	for ni, n := range m.Nodes {
		in, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0])
		switch n.Op {
		case OpConv2D:
			p := n.Params.(Conv2DParams)
			w, bias := m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2])
			g := windowGeom(m, n)
			if in.Type == Float32 {
				maxColF32 = max(maxColF32, g.colLen())
				ip.execs[ni] = func() { convFloatGemm(in, w, bias, out, g, p.Activation, ip.colF32) }
				break
			}
			cp := prepConvInt8(in, w, bias, out, g, p.Activation)
			maxGemmX = max(maxGemmX, cp.pr.gemmScratchLen())
			ip.imgBytes += len(cp.img)
			ip.execs[ni] = func() { cp.run(in.I8, out.I8, ip.gemmX) }
		case OpDepthwiseConv2D:
			w, bias := m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2])
			dp := prepDepthwiseInt8(in, w, bias, out, windowGeom(m, n), n.Params.(Conv2DParams).Activation)
			ip.execs[ni] = func() { depthwiseInt8Opt(in, w, bias, out, dp) }
		case OpFullyConnected:
			act := n.Params.(FullyConnectedParams).Activation
			w, bias := m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2])
			batches, outN, inN := fcGeom(in, w)
			if in.Type == Float32 {
				ip.execs[ni] = func() { gemmFloat(batches, outN, inN, in.F32, w.F32, bias.F32, act, out.F32) }
				break
			}
			pr := prepLinearInt8(in, w, bias, out, act, outN, 1, inN, 0)
			maxGemmX = max(maxGemmX, pr.gemmScratchLen())
			ip.execs[ni] = func() { pr.fcRows(in.I8, out.I8, batches, ip.gemmX) }
		case OpSoftmax:
			beta := 1.0
			if p, ok := n.Params.(SoftmaxParams); ok && p.Beta != 0 {
				beta = p.Beta
			}
			depth := in.Shape[len(in.Shape)-1]
			maxDepth = max(maxDepth, depth)
			ip.execs[ni] = func() { softmax(in, out, beta, ip.smLogits, ip.smProbs) }
		case OpReshape:
			ip.execs[ni] = func() { reshapeCopy(in, out) }
		case OpRelu:
			if in.Type == Float32 {
				ip.execs[ni] = func() { reluF32(in.F32, out.F32) }
				break
			}
			zp := in.Quant.ZeroPoint
			ip.execs[ni] = func() { reluI8(in.I8, out.I8, zp) }
		case OpMaxPool2D, OpAvgPool2D:
			op, g := n.Op, windowGeom(m, n)
			ip.execs[ni] = func() { pool(op, in, out, g) }
		}
	}
	if maxGemmX > 0 {
		ip.gemmX = make([]uint64, maxGemmX)
	}
	if maxColF32 > 0 {
		ip.colF32 = make([]float32, maxColF32)
	}
	if maxDepth > 0 {
		ip.smLogits = make([]float64, maxDepth)
		ip.smProbs = make([]float64, maxDepth)
	}
}

// SetMeter routes per-op cycle costs to m (typically the enclave's core).
func (ip *Interpreter) SetMeter(m Meter) { ip.meter = m }

// Model returns the interpreted model.
func (ip *Interpreter) Model() *Model { return ip.model }

// ArenaSize returns the planned activation arena in bytes (peak RAM).
func (ip *Interpreter) ArenaSize() int { return ip.plan.Total }

// ScratchSize returns the bytes of kernel scratch (the float im2col
// columns, each int8 convolution's padded input image, GEMM row scratch,
// softmax staging) the interpreter owns on top of the activation arena.
func (ip *Interpreter) ScratchSize() int {
	return 4*len(ip.colF32) + 8*len(ip.gemmX) + 8*len(ip.smLogits) + 8*len(ip.smProbs) + ip.imgBytes
}

// Input returns the i-th model input tensor.
func (ip *Interpreter) Input(i int) *Tensor { return ip.model.Tensors[ip.model.Inputs[i]] }

// Output returns the i-th model output tensor.
func (ip *Interpreter) Output(i int) *Tensor { return ip.model.Tensors[ip.model.Outputs[i]] }

// Invoke runs the graph once over the current input contents. It performs
// no heap allocations; all scratch was sized at plan time. A model that
// validated runs every node, so the error is always nil; it stays in the
// signature for callers that treat the interpreter as a fallible engine.
func (ip *Interpreter) Invoke() error {
	m := ip.model
	for ni, ex := range ip.execs {
		ex()
		if ip.meter != nil {
			ip.meter.Charge(NodeCycles(m, m.Nodes[ni]))
		}
	}
	return nil
}

// NodeCycles estimates the simulated-core cost of one operator application
// using the calibrated hw cost model. The cost model is a property of the
// modeled device, not of the host kernels: the implicit-GEMM kernels speed
// up the simulator, it does not change the simulated cycle counts.
func NodeCycles(m *Model, n Node) uint64 {
	switch n.Op {
	case OpConv2D, OpDepthwiseConv2D, OpFullyConnected:
		out := m.Tensor(n.Outputs[0])
		return nodeMACs(m, n)*hw.CyclesPerMAC + uint64(out.NumElements())*hw.CyclesPerActivation
	case OpSoftmax:
		return uint64(m.Tensor(n.Outputs[0]).NumElements()) * hw.CyclesPerSoftmaxTerm
	case OpRelu:
		return uint64(m.Tensor(n.Outputs[0]).NumElements()) * hw.CyclesPerActivation
	case OpReshape:
		return uint64(m.Tensor(n.Outputs[0]).ByteSize()) * hw.CyclesPerByteCopy
	case OpMaxPool2D, OpAvgPool2D:
		p := n.Params.(PoolParams)
		out := m.Tensor(n.Outputs[0])
		return uint64(out.NumElements()) * uint64(p.FilterH*p.FilterW) * hw.CyclesPerActivation
	default:
		return 0
	}
}

// InferenceCycles estimates the total cost of one Invoke.
func InferenceCycles(m *Model) uint64 {
	var total uint64
	for _, n := range m.Nodes {
		total += NodeCycles(m, n)
	}
	return total
}

// ArgmaxI8 returns the index of the maximum element of an int8 slice
// (first maximum wins), or -1 when empty — the slice-level decision rule
// of callers that hold the output as a plain int8 slice.
func ArgmaxI8(xs []int8) int {
	best := -1
	for i, v := range xs {
		if best < 0 || v > xs[best] {
			best = i
		}
	}
	return best
}

// Argmax returns the index of the maximum element of a rank-1-like tensor,
// the classification decision rule of the keyword spotter. A nil, empty, or
// unallocated tensor yields -1.
func Argmax(t *Tensor) int {
	if t == nil {
		return -1
	}
	best := -1
	switch t.Type {
	case Int8:
		best = ArgmaxI8(t.I8)
	case UInt8:
		for i, v := range t.U8 {
			if best < 0 || v > t.U8[best] {
				best = i
			}
		}
	case Float32:
		for i, v := range t.F32 {
			if best < 0 || v > t.F32[best] {
				best = i
			}
		}
	case Int32:
		for i, v := range t.I32 {
			if best < 0 || v > t.I32[best] {
				best = i
			}
		}
	}
	return best
}
