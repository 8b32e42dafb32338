package tflm

import "fmt"

// Batched execution: PlanBatch sizes a stacked-utterance twin of the graph
// once, and InvokeBatch runs up to that many utterances through one pass of
// the node list — one taller im2col/GEMM per convolution (M→B·M patch
// rows), one wider GEMM per fully-connected layer, one sweep per
// elementwise node. Per-node dispatch is paid once per batch instead of
// once per utterance, and the packed weight panels stay L1-resident across
// the stacked rows.
//
// The plan owns stacked int8 slabs for every non-constant tensor; utterance
// j's input is staged via BatchInput(j) and its result read via
// BatchOutput(j). Output rows are valid until the next InvokeBatch (or
// Invoke) on this interpreter — copy what must outlive it. Results are
// bit-exact with running each utterance through Invoke serially: the
// batched kernels are the same kernels over stacked rows, and the batch
// slabs are disjoint from the serial tensors. The plan owns its kernel
// scratch — im2col column slabs (padding prefilled per conv node), GEMM
// row scratch, softmax staging — so InvokeBatch allocates nothing. Cycle
// metering charges b× the per-utterance node costs: batching, like the
// SWAR and AVX2 kernels, is a host-side optimization invisible to the
// simulated device.

// batchShard is the kernel scratch a batched node sweep needs.
type batchShard struct {
	cols     [][]int8 // per conv node column slab, padding prefilled
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
	// Invoke (exotic node or dtype in the graph).
	runs  []func(sc *batchShard, u0, u1 int) error
	ops   []OpCode // node opcodes, for error messages off the fast path
	shard *batchShard
	// tileB is the cache-blocking tile: runSpan sweeps the node list over
	// tileB utterances at a time so a tile's activation slab rows stay
	// L1-resident from producer to consumer instead of streaming the whole
	// span between nodes (0 = untiled). Chosen at plan time from the
	// per-utterance slab footprint; purely an iteration-order change, so
	// results are bit-identical to the untiled sweep.
	tileB int
}

// colCopy is one replayed im2col transfer: col[dst:dst+n] = src[src:src+n].
type colCopy struct{ dst, src, n int32 }

// recordIm2col compiles the im2col traversal of one utterance (all original
// batches) into a copy program: the clip arithmetic, branch structure and
// padding fills run once at plan time; InvokeBatch replays only the
// surviving contiguous copies. Padding positions are never recorded — the
// plan prefills the column slab with the zero point once, and no replay
// touches those bytes again. Adjacent transfers that abut in both source
// and destination are merged.
func recordIm2col(g convGeom) []colCopy {
	var prog []colCopy
	rowLen := g.kW * g.inC
	add := func(dst, src, n int) {
		if n <= 0 {
			return
		}
		if len(prog) > 0 {
			last := &prog[len(prog)-1]
			if int(last.dst)+int(last.n) == dst && int(last.src)+int(last.n) == src {
				last.n += int32(n)
				return
			}
		}
		prog = append(prog, colCopy{int32(dst), int32(src), int32(n)})
	}
	m := 0
	for b := 0; b < g.batches; b++ {
		for oy := 0; oy < g.outH; oy++ {
			iy0 := oy*g.strideH - g.padT
			kyLo, kyHi := 0, g.kH
			if iy0 < 0 {
				kyLo = -iy0
			}
			if iy0+g.kH > g.inH {
				kyHi = g.inH - iy0
			}
			for ox := 0; ox < g.outW; ox++ {
				ix0 := ox*g.strideW - g.padL
				kxLo, kxHi := 0, g.kW
				if ix0 < 0 {
					kxLo = -ix0
				}
				if ix0+g.kW > g.inW {
					kxHi = g.inW - ix0
				}
				for ky := kyLo; ky < kyHi; ky++ {
					if kxHi <= kxLo {
						break
					}
					add(m*g.K+ky*rowLen+kxLo*g.inC,
						((b*g.inH+iy0+ky)*g.inW+ix0+kxLo)*g.inC,
						(kxHi-kxLo)*g.inC)
				}
				m++
			}
		}
	}
	return prog
}

// replayIm2col replays a compiled copy program into col, reading src at a
// byte offset (0 for serial Invoke, the utterance base for InvokeBatch).
// Short transfers move inline: the program is dominated by single-kernel-row
// segments a few bytes long, where memmove's call overhead dwarfs the move.
func replayIm2col(prog []colCopy, col, src []int8, off int) {
	for i := range prog {
		c := &prog[i]
		s := src[off+int(c.src) : off+int(c.src)+int(c.n)]
		d := col[c.dst : int(c.dst)+int(c.n)]
		if len(s) == 8 && len(d) == 8 {
			// The dominant record shape is one full kernel row of the
			// single-channel conv — exactly eight bytes, compiled to one
			// word-sized load/store pair instead of a byte loop.
			*(*[8]int8)(d) = *(*[8]int8)(s)
		} else if len(s) <= 16 {
			for j, v := range s {
				d[j] = v
			}
		} else {
			copy(d, s)
		}
	}
}

// convColSpec records one conv node's column-slab requirement.
type convColSpec struct {
	length int
	fill   int8
}

// PlanBatch prepares the interpreter to run up to maxB stacked utterances
// per InvokeBatch call. It allocates the stacked activation slabs and the
// kernel scratch now, so InvokeBatch performs no heap allocation. Planning
// again replaces the previous plan (tickets into old slabs become stale).
// The model's primary input and output must be int8; graphs with nodes the
// batched engine cannot stack (float dtypes, pooling, dynamic weights) keep
// a degraded plan that runs the serial engine per utterance — same results,
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
	// producers[ti] counts nodes writing tensor ti; the Reshape alias below
	// is only sound when both endpoints have a single writer.
	producers := make([]int, len(m.Tensors))
	for _, n := range m.Nodes {
		for _, o := range n.Outputs {
			producers[o]++
		}
	}

	var cols []convColSpec
	maxGemmX, maxDepth := 0, 0
	runs := make([]func(sc *batchShard, u0, u1 int) error, len(m.Nodes))
	for ni, n := range m.Nodes {
		switch n.Op {
		case OpConv2D:
			cp, ok := ip.preps[ni].(*convPrep)
			if !ok {
				runs = nil
			} else {
				src, dst := slab(n.Inputs[0]), slab(n.Outputs[0])
				if src == nil || dst == nil {
					runs = nil
					break
				}
				g, pr := cp.g, cp.pr
				// Dedicated column slab per conv node, prefilled
				// with the node's padding zero point so the replayed copy
				// program never has to re-fill padding. The slab holds one
				// utterance: replay and GEMM interleave per utterance so
				// the column data is consumed while still cache-hot (a
				// single B·M-row sweep would stream B×col through the
				// cache between write and read).
				ci := len(cols)
				cols = append(cols, convColSpec{length: g.batches * g.colLen(), fill: int8(pr.inZP)})
				if n := pr.gemmScratchLen(); n > maxGemmX {
					maxGemmX = n
				}
				prog := cp.prog // compiled once at prepNodes time
				uttIn := g.batches * g.inH * g.inW * g.inC
				rows := g.batches * g.M
				uttOut := rows * g.outC
				runs[ni] = func(sc *batchShard, u0, u1 int) error {
					col := sc.cols[ci]
					for u := u0; u < u1; u++ {
						replayIm2col(prog, col, src, u*uttIn)
						gemmInt8Requant(rows, col, dst[u*uttOut:(u+1)*uttOut], pr, sc.gemmX)
					}
					return nil
				}
			}
		case OpFullyConnected:
			fp, ok := ip.preps[ni].(*fcPrep)
			if !ok {
				runs = nil
			} else {
				src, dst := slab(n.Inputs[0]), slab(n.Outputs[0])
				if src == nil || dst == nil {
					runs = nil
					break
				}
				pr, rows := fp.pr, fp.batches
				if n := pr.gemmScratchLen(); n > maxGemmX {
					maxGemmX = n
				}
				inRow, outRow := rows*pr.k, rows*pr.n
				runs[ni] = func(sc *batchShard, u0, u1 int) error {
					gemmInt8Requant((u1-u0)*rows, src[u0*inRow:u1*inRow], dst[u0*outRow:u1*outRow], pr, sc.gemmX)
					return nil
				}
			}
		case OpSoftmax:
			sp, ok := ip.preps[ni].(*softmaxPrep)
			in, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0])
			if !ok || in.Quant == nil || out.Quant == nil {
				runs = nil
			} else {
				src, dst := slab(n.Inputs[0]), slab(n.Outputs[0])
				if src == nil || dst == nil {
					runs = nil
					break
				}
				depth, outer, beta := sp.depth, sp.outer, sp.beta
				if depth > maxDepth {
					maxDepth = depth
				}
				inQ, outQ := in.Quant, out.Quant
				uttLen := outer * depth
				runs[ni] = func(sc *batchShard, u0, u1 int) error {
					softmaxRowsI8(src[u0*uttLen:u1*uttLen], dst[u0*uttLen:u1*uttLen],
						(u1-u0)*outer, depth, beta, inQ, outQ, sc.smLogits, sc.smProbs)
					return nil
				}
			}
		case OpReshape:
			in, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0])
			if in.Type != Int8 || out.Type != Int8 || in.NumElements() != out.NumElements() {
				runs = nil
			} else {
				src := slab(n.Inputs[0])
				if src == nil {
					runs = nil
					break
				}
				// A reshape is a pure copy; when its endpoints each have a
				// single writer and the output slab does not exist yet, the
				// output can alias the input and the node costs nothing per
				// batch. (The simulated-device cycle charge still applies —
				// aliasing is a host optimization.)
				if producers[n.Inputs[0]] <= 1 && producers[n.Outputs[0]] == 1 && bp.slabs[n.Outputs[0]] == nil {
					bp.slabs[n.Outputs[0]] = src
					runs[ni] = func(*batchShard, int, int) error { return nil }
					break
				}
				dst := slab(n.Outputs[0])
				if dst == nil {
					runs = nil
					break
				}
				elems := in.NumElements()
				runs[ni] = func(sc *batchShard, u0, u1 int) error {
					copy(dst[u0*elems:u1*elems], src[u0*elems:u1*elems])
					return nil
				}
			}
		case OpRelu:
			in, out := m.Tensor(n.Inputs[0]), m.Tensor(n.Outputs[0])
			if in.Type != Int8 || in.Quant == nil || in.NumElements() != out.NumElements() {
				runs = nil
			} else {
				src, dst := slab(n.Inputs[0]), slab(n.Outputs[0])
				if src == nil || dst == nil {
					runs = nil
					break
				}
				elems, zp := in.NumElements(), in.Quant.ZeroPoint
				runs[ni] = func(sc *batchShard, u0, u1 int) error {
					off := u0 * elems
					for i, v := range src[off : u1*elems] {
						if int32(v) < zp {
							dst[off+i] = int8(zp)
						} else {
							dst[off+i] = v
						}
					}
					return nil
				}
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
		bp.ops = make([]OpCode, len(m.Nodes))
		for ni, n := range m.Nodes {
			bp.ops[ni] = n.Op
		}
		sc := &batchShard{cols: make([][]int8, len(cols))}
		for i, spec := range cols {
			col := make([]int8, spec.length)
			fillSlice(col, spec.fill)
			sc.cols[i] = col
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
// packed weight panels, the column slab rows and the GEMM row scratch stream
// through the same cache while a tile is in flight.
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
func (bp *batchPlan) runSpan(u0, u1 int) error {
	step := bp.tileB
	if step <= 0 {
		step = u1 - u0
	}
	for t0 := u0; t0 < u1; t0 += step {
		t1 := t0 + step
		if t1 > u1 {
			t1 = u1
		}
		for ni, run := range bp.runs {
			if err := run(bp.shard, t0, t1); err != nil {
				return fmt.Errorf("tflm: node %d (%v): %w", ni, bp.ops[ni], err)
			}
		}
	}
	return nil
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
	if err := bp.runSpan(0, b); err != nil {
		return err
	}
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
