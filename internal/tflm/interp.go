package tflm

import (
	"fmt"

	"repro/internal/hw"
)

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
// At construction the interpreter "preps" every node it can: requantization
// multipliers are decomposed once, per-filter zero-point corrections
// (bias[oc] - inZP·Σw[oc]) are folded into accumulator seeds, and the
// im2col/softmax scratch is sized to the largest node. Invoke therefore
// performs no heap allocation and no floating-point requant setup on the
// hot path. Prep assumes constant tensors are immutable after construction
// (they are baked into the model); nodes that cannot be prepped — exotic
// shapes, missing quantization — fall back to the unprepped dispatch path
// with identical error behavior.
type Interpreter struct {
	model *Model
	plan  *ArenaPlan
	meter Meter
	// execs[i] runs node i through its prepped fast path; nil entries fall
	// back to evalNode.
	execs []func() error
	// preps[i] records the plan-time state behind execs[i] so other
	// execution modes (the batched InvokeBatch plan) can reuse it without
	// re-deriving geometry or repacking weights.
	preps []any
	// Shared kernel scratch, sized at plan time to the largest consumer
	// (int8 convolutions instead own a dedicated column slab per node, in
	// their convPrep, so the plan-compiled copy program can prefill padding
	// once).
	colF32   []float32
	gemmX    []uint64 // gemmInt8Requant scratch: SWAR packed rows or the AVX2 staging row
	smLogits []float64
	smProbs  []float64
	// batch is the optional stacked-utterance plan built by PlanBatch.
	batch *batchPlan
}

// Per-node prep records stashed by prepNodes for reuse by PlanBatch.
type convPrep struct {
	g  convGeom
	pr *linearPrep
	// prog is the plan-compiled im2col copy program (recordIm2col) and col
	// the node's dedicated, zero-point-prefilled column slab: serial Invoke
	// replays only the surviving contiguous copies — the clip arithmetic
	// and padding fills ran once at prep time. PlanBatch reuses prog with
	// per-shard column slabs.
	prog []colCopy
	col  []int8
}

type fcPrep struct {
	batches, outN, inN int
	pr                 *linearPrep
}

type softmaxPrep struct {
	depth, outer int
	beta         float64
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

// prepNodes builds the per-node fast paths and sizes the shared scratch.
// Prep failures are not errors: the node keeps a nil exec and Invoke runs
// it through the generic dispatcher, which reports the same diagnostics the
// unprepped engine would.
func (ip *Interpreter) prepNodes() {
	m := ip.model
	ip.execs = make([]func() error, len(m.Nodes))
	ip.preps = make([]any, len(m.Nodes))
	maxColF32, maxDepth, maxGemmX := 0, 0, 0
	for ni, n := range m.Nodes {
		switch n.Op {
		case OpConv2D:
			p, ok := n.Params.(Conv2DParams)
			if !ok {
				continue
			}
			in, w, bias, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2]), m.Tensor(n.Outputs[0])
			g, err := resolveConvGeom(in, w, out, p)
			if err != nil {
				continue
			}
			switch in.Type {
			case Int8:
				// acc0 bakes weight/bias contents; only valid when both
				// are model constants (graphs may legally produce them).
				if !w.IsConst || !bias.IsConst {
					continue
				}
				pr, err := prepLinearInt8(in, w, bias, out, p.Activation, g.outC, g.K)
				if err != nil {
					continue
				}
				// Out-of-int8-range zero points can't be packed as padding
				// fill; leave such nodes on the exact scalar fallback.
				if pr.inZP < -128 || pr.inZP > 127 {
					continue
				}
				if n := pr.gemmScratchLen(); n > maxGemmX {
					maxGemmX = n
				}
				cp := &convPrep{g: g, pr: pr, prog: recordIm2col(g), col: make([]int8, g.batches*g.colLen())}
				fillSlice(cp.col, int8(pr.inZP))
				rows := g.batches * g.M
				ip.preps[ni] = cp
				ip.execs[ni] = func() error {
					replayIm2col(cp.prog, cp.col, in.I8, 0)
					gemmInt8Requant(rows, cp.col, out.I8, pr, ip.gemmX)
					return nil
				}
			case Float32:
				if g.colLen() > maxColF32 {
					maxColF32 = g.colLen()
				}
				ip.execs[ni] = func() error {
					convFloatGemm(in, w, bias, out, g, p.Activation, ip.colF32)
					return nil
				}
			}
		case OpDepthwiseConv2D:
			p, ok := n.Params.(Conv2DParams)
			if !ok {
				continue
			}
			in, w, bias, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2]), m.Tensor(n.Outputs[0])
			if !w.IsConst || !bias.IsConst {
				continue
			}
			dp, err := prepDepthwiseInt8(in, w, bias, out, p)
			if err != nil {
				continue
			}
			ip.execs[ni] = func() error {
				depthwiseInt8Opt(in, w, bias, out, dp)
				return nil
			}
		case OpFullyConnected:
			p, ok := n.Params.(FullyConnectedParams)
			if !ok {
				continue
			}
			in, w, bias, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2]), m.Tensor(n.Outputs[0])
			batches, outN, inN, err := fcGeom(in, w, out)
			if err != nil {
				continue
			}
			switch in.Type {
			case Int8:
				if !w.IsConst || !bias.IsConst {
					continue
				}
				pr, err := prepLinearInt8(in, w, bias, out, p.Activation, outN, inN)
				if err != nil {
					continue
				}
				if n := pr.gemmScratchLen(); n > maxGemmX {
					maxGemmX = n
				}
				ip.preps[ni] = &fcPrep{batches: batches, outN: outN, inN: inN, pr: pr}
				ip.execs[ni] = func() error {
					gemmInt8Requant(batches, in.I8, out.I8, pr, ip.gemmX)
					return nil
				}
			case Float32:
				ip.execs[ni] = func() error {
					gemmFloat(batches, outN, inN, in.F32, w.F32, bias.F32, p.Activation, out.F32)
					return nil
				}
			}
		case OpSoftmax:
			p, _ := n.Params.(SoftmaxParams)
			in, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0])
			if len(in.Shape) == 0 {
				continue
			}
			depth := in.Shape[len(in.Shape)-1]
			if depth > maxDepth {
				maxDepth = depth
			}
			beta := p.Beta
			if beta == 0 {
				beta = 1
			}
			ip.preps[ni] = &softmaxPrep{depth: depth, outer: in.NumElements() / depth, beta: beta}
			ip.execs[ni] = func() error {
				return evalSoftmaxScratch(in, out, p, ip.smLogits, ip.smProbs)
			}
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

// ScratchSize returns the bytes of kernel scratch (im2col columns — shared
// for float, per conv node for int8 — GEMM row scratch, softmax staging) the
// interpreter owns on top of the activation arena.
func (ip *Interpreter) ScratchSize() int {
	total := 4*len(ip.colF32) + 8*len(ip.gemmX) + 8*len(ip.smLogits) + 8*len(ip.smProbs)
	for _, p := range ip.preps {
		if cp, ok := p.(*convPrep); ok {
			total += len(cp.col)
		}
	}
	return total
}

// Input returns the i-th model input tensor.
func (ip *Interpreter) Input(i int) *Tensor { return ip.model.Tensors[ip.model.Inputs[i]] }

// Output returns the i-th model output tensor.
func (ip *Interpreter) Output(i int) *Tensor { return ip.model.Tensors[ip.model.Outputs[i]] }

// Invoke runs the graph once over the current input contents. It performs
// no heap allocations; all scratch was sized at plan time.
func (ip *Interpreter) Invoke() error {
	m := ip.model
	for ni, n := range m.Nodes {
		var err error
		if ex := ip.execs[ni]; ex != nil {
			err = ex()
		} else {
			err = ip.evalNode(n)
		}
		if err != nil {
			return fmt.Errorf("tflm: node %d (%v): %w", ni, n.Op, err)
		}
		if ip.meter != nil {
			ip.meter.Charge(NodeCycles(m, n))
		}
	}
	return nil
}

// evalNode is the fallback for unprepped nodes. Linear ops run the scalar
// reference kernels here: they are exact for any quantization, read live
// (possibly graph-produced) weights, and allocate nothing per Invoke.
func (ip *Interpreter) evalNode(n Node) error {
	m := ip.model
	switch n.Op {
	case OpConv2D:
		return evalConv2DRef(m.Tensor(n.Inputs[0]), m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2]), m.Tensor(n.Outputs[0]), n.Params.(Conv2DParams))
	case OpDepthwiseConv2D:
		return evalDepthwiseConv2DRef(m.Tensor(n.Inputs[0]), m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2]), m.Tensor(n.Outputs[0]), n.Params.(Conv2DParams))
	case OpFullyConnected:
		return evalFullyConnectedRef(m.Tensor(n.Inputs[0]), m.Tensor(n.Inputs[1]), m.Tensor(n.Inputs[2]), m.Tensor(n.Outputs[0]), n.Params.(FullyConnectedParams))
	case OpSoftmax:
		p, _ := n.Params.(SoftmaxParams)
		return evalSoftmax(m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0]), p)
	case OpReshape:
		return evalReshape(m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0]))
	case OpRelu:
		return evalRelu(m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0]))
	case OpMaxPool2D, OpAvgPool2D:
		return evalPool(n.Op, m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0]), n.Params.(PoolParams))
	default:
		return fmt.Errorf("unsupported op %v", n.Op)
	}
}

// NodeCycles estimates the simulated-core cost of one operator application
// using the calibrated hw cost model. The cost model is a property of the
// modeled device, not of the host kernels: the im2col/GEMM rewrite speeds
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
// used by batched paths that read stacked output rows.
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
