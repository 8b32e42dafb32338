package tflm

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildRandomConvModel assembles a Conv2D→Reshape→FullyConnected→Softmax
// graph over a randomized geometry, the same op chain as tiny_conv but with
// arbitrary shapes, so batched equivalence is exercised beyond the paper
// model.
func buildRandomConvModel(t *testing.T, r *rand.Rand) *Model {
	t.Helper()
	inH := 5 + r.Intn(12)
	inW := 5 + r.Intn(12)
	inC := 1 + r.Intn(3)
	filters := 1 + r.Intn(9)
	kH := 1 + r.Intn(min(5, inH))
	kW := 1 + r.Intn(min(5, inW))
	strideH := 1 + r.Intn(2)
	strideW := 1 + r.Intn(2)
	pad := PaddingSame
	if r.Intn(2) == 0 {
		pad = PaddingValid
	}
	classes := 2 + r.Intn(10)

	b := NewBuilder("random conv", 1)
	inQ := QuantParams{Scale: 0.5 + r.Float64(), ZeroPoint: int32(r.Intn(256) - 128)}
	in := b.Tensor(&Tensor{Name: "in", Type: Int8, Shape: []int{1, inH, inW, inC}, Quant: &inQ})
	b.Input(in)

	wQ := SymmetricWeightParams(0.3 + r.Float64())
	convW := &Tensor{Name: "conv_w", Type: Int8, Shape: []int{filters, kH, kW, inC}, Quant: &wQ}
	convW.Alloc()
	for i := range convW.I8 {
		convW.I8[i] = int8(r.Intn(256) - 128)
	}
	convB := &Tensor{Name: "conv_b", Type: Int32, Shape: []int{filters}, Quant: &QuantParams{Scale: inQ.Scale * wQ.Scale}}
	convB.Alloc()
	for i := range convB.I32 {
		convB.I32[i] = int32(r.Intn(2048) - 1024)
	}
	wi, bi := b.Const(convW), b.Const(convB)

	outH, _ := convOutputSize(inH, kH, strideH, pad)
	outW, _ := convOutputSize(inW, kW, strideW, pad)
	if outH <= 0 || outW <= 0 {
		t.Skip("degenerate geometry")
	}
	convQ := QuantParams{Scale: 0.1 + r.Float64(), ZeroPoint: int32(r.Intn(256) - 128)}
	convOut := b.Tensor(&Tensor{Name: "conv_out", Type: Int8, Shape: []int{1, outH, outW, filters}, Quant: &convQ})
	b.Node(OpConv2D, Conv2DParams{StrideH: strideH, StrideW: strideW, Padding: pad, Activation: ActReLU},
		[]int{in, wi, bi}, []int{convOut})
	flatLen := outH * outW * filters
	flat := b.Tensor(&Tensor{Name: "flat", Type: Int8, Shape: []int{1, flatLen}, Quant: &convQ})
	b.Node(OpReshape, ReshapeParams{NewShape: []int{1, flatLen}}, []int{convOut}, []int{flat})

	fcWQ := SymmetricWeightParams(0.2 + r.Float64())
	fcW := &Tensor{Name: "fc_w", Type: Int8, Shape: []int{classes, flatLen}, Quant: &fcWQ}
	fcW.Alloc()
	for i := range fcW.I8 {
		fcW.I8[i] = int8(r.Intn(256) - 128)
	}
	fcB := &Tensor{Name: "fc_b", Type: Int32, Shape: []int{classes}, Quant: &QuantParams{Scale: convQ.Scale * fcWQ.Scale}}
	fcB.Alloc()
	fwi, fbi := b.Const(fcW), b.Const(fcB)
	logitQ := QuantParams{Scale: 0.25, ZeroPoint: 0}
	logits := b.Tensor(&Tensor{Name: "logits", Type: Int8, Shape: []int{1, classes}, Quant: &logitQ})
	b.Node(OpFullyConnected, FullyConnectedParams{}, []int{flat, fwi, fbi}, []int{logits})
	probQ := SoftmaxOutputParams()
	probs := b.Tensor(&Tensor{Name: "probs", Type: Int8, Shape: []int{1, classes}, Quant: &probQ})
	b.Node(OpSoftmax, SoftmaxParams{Beta: 1}, []int{logits}, []int{probs})
	b.Output(probs)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInvokeBatchMatchesSerial: over randomized conv geometries (plus the
// paper tiny_conv), planned capacities from 1 to 11 and every batch size up
// to the capacity, the stacked InvokeBatch must be bit-exact with running
// each utterance through serial Invoke — which the kernel equivalence tests
// in turn pin to the scalar reference kernels.
func TestInvokeBatchMatchesSerial(t *testing.T) {
	for trial := 0; trial < 16; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			forEachGEMMKernel(t, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(9000 + trial)))
				var model *Model
				if trial == 0 {
					var err error
					if model, err = BuildRandomTinyConv(1, 7); err != nil {
						t.Fatal(err)
					}
				} else {
					model = buildRandomConvModel(t, r)
				}
				batched, err := NewInterpreter(model.Clone())
				if err != nil {
					t.Fatal(err)
				}
				serial, err := NewInterpreter(model.Clone())
				if err != nil {
					t.Fatal(err)
				}
				maxB := 1 + r.Intn(11)
				if err := batched.PlanBatch(maxB); err != nil {
					t.Fatal(err)
				}
				if bc := batched.BatchCapacity(); bc != maxB {
					t.Fatalf("BatchCapacity = %d, want %d", bc, maxB)
				}
				inElems := serial.Input(0).NumElements()
				outElems := serial.Output(0).NumElements()
				for b := 1; b <= maxB; b++ {
					inputs := make([][]int8, b)
					for j := 0; j < b; j++ {
						inputs[j] = make([]int8, inElems)
						for i := range inputs[j] {
							inputs[j][i] = int8(r.Intn(256) - 128)
						}
						copy(batched.BatchInput(j), inputs[j])
					}
					if err := batched.InvokeBatch(b); err != nil {
						t.Fatal(err)
					}
					for j := 0; j < b; j++ {
						copy(serial.Input(0).I8, inputs[j])
						if err := serial.Invoke(); err != nil {
							t.Fatal(err)
						}
						got := batched.BatchOutput(j)
						for i := 0; i < outElems; i++ {
							if got[i] != serial.Output(0).I8[i] {
								t.Fatalf("B=%d utterance %d output %d: batched %d != serial %d",
									b, j, i, got[i], serial.Output(0).I8[i])
							}
						}
					}
				}
			})
		})
	}
}

// TestInvokeBatchTilingMatchesSerial: the cache-blocking tile is a pure
// iteration-order change, so every forced tile width — untiled, degenerate
// 1, widths that do not divide the batch (odd tails), and widths beyond the
// batch — must stay bit-exact with serial Invoke, over randomized models and
// batch sizes including B=1 and B=MaxBatch.
func TestInvokeBatchTilingMatchesSerial(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			forEachGEMMKernel(t, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(4200 + trial)))
				var model *Model
				if trial == 0 {
					var err error
					if model, err = BuildRandomTinyConv(1, 7); err != nil {
						t.Fatal(err)
					}
				} else {
					model = buildRandomConvModel(t, r)
				}
				batched, err := NewInterpreter(model.Clone())
				if err != nil {
					t.Fatal(err)
				}
				serial, err := NewInterpreter(model.Clone())
				if err != nil {
					t.Fatal(err)
				}
				maxB := 5 + r.Intn(8)
				if err := batched.PlanBatch(maxB); err != nil {
					t.Fatal(err)
				}
				if batched.batch.runs == nil {
					t.Skip("degraded serial fallback: no tiling to exercise")
				}
				if tb := batched.batch.tileB; tb < 2 || tb > maxB {
					t.Fatalf("planned tileB = %d outside [2, %d]", tb, maxB)
				}
				inElems := serial.Input(0).NumElements()
				outElems := serial.Output(0).NumElements()
				// Stage maxB utterances once and precompute the serial truth.
				want := make([][]int8, maxB)
				for j := 0; j < maxB; j++ {
					row := batched.BatchInput(j)
					for i := range row {
						row[i] = int8(r.Intn(256) - 128)
					}
					copy(serial.Input(0).I8, row)
					if err := serial.Invoke(); err != nil {
						t.Fatal(err)
					}
					want[j] = append([]int8(nil), serial.Output(0).I8[:outElems]...)
				}
				_ = inElems
				for _, tile := range []int{0, 1, 2, 3, maxB - 1, maxB, maxB + 3} {
					batched.batch.tileB = tile
					for _, b := range []int{1, maxB - 1, maxB} {
						if err := batched.InvokeBatch(b); err != nil {
							t.Fatalf("tile=%d b=%d: %v", tile, b, err)
						}
						for j := 0; j < b; j++ {
							got := batched.BatchOutput(j)
							for i := 0; i < outElems; i++ {
								if got[i] != want[j][i] {
									t.Fatalf("tile=%d b=%d utterance %d output %d: batched %d != serial %d",
										tile, b, j, i, got[i], want[j][i])
								}
							}
						}
					}
				}
			})
		})
	}
}

// TestBatchTile: the tile sizer respects its floor (2, the GEMM row
// pairing), its cap (the plan capacity), counts aliased slabs once, and
// degrades to the capacity when there are no slabs to measure.
func TestBatchTile(t *testing.T) {
	mk := func(n int) []int8 { return make([]int8, n) }
	if got := batchTile(nil, 16); got != 16 {
		t.Fatalf("no slabs: tile = %d, want capB 16", got)
	}
	// Huge per-utterance footprint → floor of 2.
	if got := batchTile([][]int8{mk(16 * 64 << 10)}, 16); got != 2 {
		t.Fatalf("huge slab: tile = %d, want 2", got)
	}
	// Tiny footprint → capped at capB.
	if got := batchTile([][]int8{mk(16 * 4)}, 16); got != 16 {
		t.Fatalf("tiny slab: tile = %d, want 16", got)
	}
	// Mid footprint: 16 utterances × 2 KiB rows → 8 rows per 16 KiB budget.
	if got := batchTile([][]int8{mk(16 * 2048)}, 16); got != 8 {
		t.Fatalf("mid slab: tile = %d, want 8", got)
	}
	// An aliased slab (Reshape) must not double-count its bytes.
	shared := mk(16 * 2048)
	if got := batchTile([][]int8{shared, shared}, 16); got != 8 {
		t.Fatalf("aliased slabs: tile = %d, want 8", got)
	}
}

// TestInvokeBatchValidation: unplanned and out-of-range calls must fail.
func TestInvokeBatchValidation(t *testing.T) {
	model, err := BuildRandomTinyConv(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := NewInterpreter(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.InvokeBatch(1); err == nil {
		t.Fatal("InvokeBatch before PlanBatch accepted")
	}
	if err := ip.PlanBatch(0); err == nil {
		t.Fatal("PlanBatch(0) accepted")
	}
	if err := ip.PlanBatch(4); err != nil {
		t.Fatal(err)
	}
	if err := ip.InvokeBatch(5); err == nil {
		t.Fatal("batch beyond capacity accepted")
	}
	if err := ip.InvokeBatch(0); err == nil {
		t.Fatal("zero batch accepted")
	}
}

// TestInvokeBatchZeroAlloc: like Invoke, the planned batched path must not
// touch the heap, whether the batch fills the plan, leaves a partial tile
// or is a lone utterance.
func TestInvokeBatchZeroAlloc(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) {
		model, err := BuildRandomTinyConv(1, 7)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := NewInterpreter(model)
		if err != nil {
			t.Fatal(err)
		}
		const capB = 8
		if err := ip.PlanBatch(capB); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < capB; j++ {
			row := ip.BatchInput(j)
			for i := range row {
				row[i] = int8((i + j) % 251)
			}
		}
		for _, batch := range []int{capB, capB - 1, 1} {
			allocs := testing.AllocsPerRun(10, func() {
				if err := ip.InvokeBatch(batch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("InvokeBatch(%d) allocates %v times per run, want 0", batch, allocs)
			}
		}
	})
}
