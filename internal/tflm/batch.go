package tflm

import "fmt"

// Batched execution: PlanBatch sizes a stacked-utterance twin of the graph
// once, and InvokeBatch runs up to that many utterances through one pass of
// the node list — each convolution over every stacked utterance, one wider
// GEMM per fully-connected layer, one sweep per elementwise node. Per-node
// dispatch is paid once per batch instead of once per utterance, and the
// packed weight panels stay L1-resident across the stacked rows.
//
// The plan owns stacked int8 slabs for every non-constant tensor; utterance
// j's input is staged via BatchInput(j) and its result read via
// BatchOutput(j). Output rows are valid until the next InvokeBatch (or
// Invoke) on this interpreter — copy what must outlive it. Results are
// bit-exact with running each utterance through Invoke serially: the
// batched kernels are the same kernels over stacked rows, and the batch
// slabs are disjoint from the serial tensors. The plan owns its kernel
// scratch — a padded input image per conv node (border filled once), GEMM
// row scratch, softmax staging — so InvokeBatch allocates nothing. Cycle
// metering charges b× the per-utterance node costs: batching, like the
// SWAR and AVX2 kernels, is a host-side optimization invisible to the
// simulated device.

// batchShard is the kernel scratch a batched node sweep needs.
type batchShard struct {
	imgs     [][]int8 // per conv node padded input image (convPrep.newImage)
	gemmX    []uint64
	smLogits []float64
	smProbs  []float64
}

// batchPlan is the plan-time state of InvokeBatch.
type batchPlan struct {
	capB int
	// slabs[ti] holds capB stacked copies of tensor ti's storage (nil for
	// constants and tensors the batched graph never touches). A pure-copy
	// Reshape aliases its output slab to its input slab, so the copy
	// disappears from the batched hot path.
	slabs [][]int8
	// runs[ni] executes node ni over utterances [u0, u1) with sc's scratch;
	// nil runs means the whole plan fell back to per-utterance serial
	// Invoke (a float32, pooling or depthwise node in the graph).
	runs  []func(sc *batchShard, u0, u1 int)
	shard *batchShard
	// tileB is the cache-blocking tile: runSpan sweeps the node list over
	// tileB utterances at a time so a tile's activation slab rows stay
	// L1-resident from producer to consumer instead of streaming the whole
	// span between nodes (0 = untiled). Chosen at plan time from the
	// per-utterance slab footprint; purely an iteration-order change, so
	// results are bit-identical to the untiled sweep.
	tileB int
}

// PlanBatch prepares the interpreter to run up to maxB stacked utterances
// per InvokeBatch call. It allocates the stacked activation slabs and the
// kernel scratch now, so InvokeBatch performs no heap allocation. Planning
// again replaces the previous plan (tickets into old slabs become stale).
// The model's primary input and output must be int8; graphs with nodes the
// batched engine cannot stack (float dtypes, pooling, depthwise) keep a
// degraded plan that runs the serial engine per utterance — same results,
// no stacked GEMM.
func (ip *Interpreter) PlanBatch(maxB int) error {
	if maxB < 1 {
		return fmt.Errorf("tflm: batch capacity %d < 1", maxB)
	}
	m := ip.model
	if len(m.Inputs) != 1 || len(m.Outputs) != 1 {
		return fmt.Errorf("tflm: PlanBatch needs a single-input single-output model")
	}
	if ip.Input(0).Type != Int8 || ip.Output(0).Type != Int8 {
		return fmt.Errorf("tflm: PlanBatch needs int8 model I/O")
	}
	bp := &batchPlan{capB: maxB, slabs: make([][]int8, len(m.Tensors))}
	slab := func(ti int) []int8 {
		t := m.Tensors[ti]
		if t.IsConst || t.Type != Int8 {
			return nil
		}
		if bp.slabs[ti] == nil {
			bp.slabs[ti] = make([]int8, maxB*t.NumElements())
		}
		return bp.slabs[ti]
	}
	// Input/output slabs exist even when the node walk degrades to the
	// serial fallback.
	slab(m.Inputs[0])
	slab(m.Outputs[0])
	var convs []*convPrep
	maxGemmX, maxDepth := 0, 0
	runs := make([]func(sc *batchShard, u0, u1 int), len(m.Nodes))
	for ni, n := range m.Nodes {
		// Validate admitted the node, so an int8 tensor here carries its
		// quantization; slab is nil for anything not int8.
		src := slab(n.Inputs[0])
		if n.Op == OpReshape && src != nil && bp.slabs[n.Outputs[0]] == nil {
			// A reshape is a pure copy and every tensor has one writer
			// (Validate), so an output slab that does not exist yet can
			// alias the input and the node costs nothing per batch. (The
			// simulated-device cycle charge still applies — aliasing is a
			// host optimization.)
			bp.slabs[n.Outputs[0]] = src
			runs[ni] = func(*batchShard, int, int) {}
			continue
		}
		dst := slab(n.Outputs[0])
		if src == nil || dst == nil {
			runs = nil
			break
		}
		switch n.Op {
		case OpConv2D:
			cp := ip.preps[ni].(*convPrep)
			// Each utterance's interior is copied into the shard's own
			// image of this node and its windows run while still
			// cache-hot.
			ci := len(convs)
			convs = append(convs, cp)
			maxGemmX = max(maxGemmX, cp.pr.gemmScratchLen())
			g := cp.g
			uttIn := g.batches * g.inH * g.inW * g.inC
			uttOut := g.batches * g.M * g.outC
			runs[ni] = func(sc *batchShard, u0, u1 int) {
				for u := u0; u < u1; u++ {
					cp.run(src[u*uttIn:(u+1)*uttIn], sc.imgs[ci], dst[u*uttOut:(u+1)*uttOut], sc.gemmX)
				}
			}
		case OpFullyConnected:
			fp := ip.preps[ni].(*fcPrep)
			pr, rows := fp.pr, fp.batches
			maxGemmX = max(maxGemmX, pr.gemmScratchLen())
			inRow, outRow := rows*pr.k, rows*pr.n
			runs[ni] = func(sc *batchShard, u0, u1 int) {
				pr.fcRows(src[u0*inRow:u1*inRow], dst[u0*outRow:u1*outRow], (u1-u0)*rows, sc.gemmX)
			}
		case OpSoftmax:
			sp := ip.preps[ni].(*softmaxPrep)
			depth, outer, beta := sp.depth, sp.outer, sp.beta
			maxDepth = max(maxDepth, depth)
			inQ, outQ := m.Tensor(n.Inputs[0]).Quant, m.Tensor(n.Outputs[0]).Quant
			uttLen := outer * depth
			runs[ni] = func(sc *batchShard, u0, u1 int) {
				softmaxRowsI8(src[u0*uttLen:u1*uttLen], dst[u0*uttLen:u1*uttLen],
					(u1-u0)*outer, depth, beta, inQ, outQ, sc.smLogits, sc.smProbs)
			}
		case OpReshape:
			elems := m.Tensor(n.Inputs[0]).NumElements()
			runs[ni] = func(sc *batchShard, u0, u1 int) {
				copy(dst[u0*elems:u1*elems], src[u0*elems:u1*elems])
			}
		case OpRelu:
			elems, zp := m.Tensor(n.Inputs[0]).NumElements(), m.Tensor(n.Inputs[0]).Quant.ZeroPoint
			runs[ni] = func(sc *batchShard, u0, u1 int) {
				reluI8(src[u0*elems:u1*elems], dst[u0*elems:u1*elems], zp)
			}
		default:
			runs = nil
		}
		if runs == nil {
			break
		}
	}
	if runs != nil {
		bp.runs = runs
		bp.tileB = batchTile(bp.slabs, maxB)
		sc := &batchShard{imgs: make([][]int8, len(convs))}
		for i, cp := range convs {
			sc.imgs[i] = cp.newImage()
		}
		if maxGemmX > 0 {
			sc.gemmX = make([]uint64, maxGemmX)
		}
		if maxDepth > 0 {
			sc.smLogits = make([]float64, maxDepth)
			sc.smProbs = make([]float64, maxDepth)
		}
		bp.shard = sc
	}
	ip.batch = bp
	return nil
}

// batchTileBudget is the activation working set one cache-blocking tile may
// occupy, in bytes. It deliberately undershoots a typical 32 KiB L1d: the
// packed weight panels, the padded conv images and the GEMM row scratch
// stream through the same cache while a tile is in flight.
const batchTileBudget = 16 << 10

// batchTile sizes the cache-blocking tile from the plan's stacked slabs:
// the largest utterance count whose slab rows fit batchTileBudget, floored
// at 2 so the GEMM keeps its two-row pairing, and capped at the plan
// capacity. Aliased slabs (Reshape) are counted once.
func batchTile(slabs [][]int8, capB int) int {
	perUtt := 0
	seen := make(map[*int8]bool, len(slabs))
	for _, s := range slabs {
		if len(s) == 0 || seen[&s[0]] {
			continue
		}
		seen[&s[0]] = true
		perUtt += len(s) / capB
	}
	if perUtt == 0 {
		return capB
	}
	t := batchTileBudget / perUtt
	if t < 2 {
		t = 2
	}
	if t > capB {
		t = capB
	}
	return t
}

// runSpan executes every node over utterances [u0, u1) with the plan's
// scratch, cache-blocked: the node list sweeps tileB utterances at a time, so each
// tile's activations are consumed while still resident instead of the whole
// span streaming between producer and consumer nodes. Node order within a
// tile is unchanged and tiles are disjoint, so the result is bit-identical
// to the untiled sweep.
func (bp *batchPlan) runSpan(u0, u1 int) {
	step := bp.tileB
	if step <= 0 {
		step = u1 - u0
	}
	for t0 := u0; t0 < u1; t0 += step {
		t1 := min(t0+step, u1)
		for _, run := range bp.runs {
			run(bp.shard, t0, t1)
		}
	}
}

// BatchCapacity returns the planned stacked-utterance capacity (0 before
// PlanBatch).
func (ip *Interpreter) BatchCapacity() int {
	if ip.batch == nil {
		return 0
	}
	return ip.batch.capB
}

// BatchInput returns utterance j's input row in the stacked plan; stage
// quantized features here before InvokeBatch.
func (ip *Interpreter) BatchInput(j int) []int8 {
	elems := ip.Input(0).NumElements()
	return ip.batch.slabs[ip.model.Inputs[0]][j*elems : (j+1)*elems]
}

// BatchOutput returns utterance j's output row of the most recent
// InvokeBatch; valid until the next InvokeBatch on this interpreter.
func (ip *Interpreter) BatchOutput(j int) []int8 {
	elems := ip.Output(0).NumElements()
	return ip.batch.slabs[ip.model.Outputs[0]][j*elems : (j+1)*elems]
}

// InvokeBatch classifies the b staged utterances (1 ≤ b ≤ BatchCapacity)
// in one pass over the graph. Cycle metering charges b× the per-utterance
// node costs — batching is a host-side optimization; the simulated device
// still performs every utterance's work.
func (ip *Interpreter) InvokeBatch(b int) error {
	bp := ip.batch
	if bp == nil {
		return fmt.Errorf("tflm: InvokeBatch before PlanBatch")
	}
	if b < 1 || b > bp.capB {
		return fmt.Errorf("tflm: batch size %d outside planned capacity [1, %d]", b, bp.capB)
	}
	m := ip.model
	if bp.runs == nil {
		return ip.invokeBatchSerial(b)
	}
	bp.runSpan(0, b)
	if ip.meter != nil {
		for _, n := range m.Nodes {
			ip.meter.Charge(uint64(b) * NodeCycles(m, n))
		}
	}
	return nil
}

// invokeBatchSerial is the degraded path for graphs the batched engine
// cannot stack: each staged utterance runs through the ordinary serial
// Invoke, via the plan's I/O slabs so the caller contract is unchanged.
func (ip *Interpreter) invokeBatchSerial(b int) error {
	in, out := ip.Input(0), ip.Output(0)
	for j := 0; j < b; j++ {
		copy(in.I8, ip.BatchInput(j))
		if err := ip.Invoke(); err != nil {
			return err
		}
		copy(ip.BatchOutput(j), out.I8)
	}
	return nil
}
