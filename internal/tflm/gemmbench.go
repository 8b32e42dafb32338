package tflm

import (
	"fmt"
	"math/rand"
)

// GEMMBench pins one prepped int8 implicit-GEMM invocation — the selected
// kernel's weight panel image, offset table, requant constants,
// caller-owned scratch — so the micro-benchmark habit survives kernel
// retunes: BenchmarkGEMMMicroKernel (bench_test.go) measures the kernel in
// isolation, without graph dispatch or frontend noise. A bench is either an
// m×n×k GEMM over contiguous rows (the FullyConnected route) or the
// tiny_conv conv node as Invoke runs it (NewConvNodeBench). Not used on any
// serving path.
type GEMMBench struct {
	mRows int
	a     []int8
	w     []int8
	dst   []int8
	pr    *linearPrep
	conv  *convPrep // nil for an m×n×k bench
	xb    []uint64
}

// benchTensors returns deterministic int8 input and weight tensors, an
// int32 bias and an int8 output of the given shapes. The quant parameters
// are fixed plausible values; inputs and weights cover the full int8 range
// including the −128 extremes.
func benchTensors(inShape, wShape, outShape []int, seed int64) (in, w, bias, out *Tensor) {
	r := rand.New(rand.NewSource(seed))
	in = &Tensor{Name: "a", Type: Int8, Shape: inShape, Quant: &QuantParams{Scale: 0.5, ZeroPoint: -7}}
	in.Alloc()
	for i := range in.I8 {
		in.I8[i] = int8(r.Intn(256) - 128)
	}
	w = &Tensor{Name: "w", Type: Int8, Shape: wShape, Quant: &QuantParams{Scale: 0.02, ZeroPoint: 0}}
	w.Alloc()
	for i := range w.I8 {
		w.I8[i] = int8(r.Intn(256) - 128)
	}
	bias = &Tensor{Name: "b", Type: Int32, Shape: wShape[:1]}
	bias.Alloc()
	for i := range bias.I32 {
		bias.I32[i] = int32(r.Intn(2048) - 1024)
	}
	out = &Tensor{Name: "out", Type: Int8, Shape: outShape, Quant: &QuantParams{Scale: 0.1, ZeroPoint: 3}}
	out.Alloc()
	return in, w, bias, out
}

// NewGEMMBench builds a deterministic m×n×k int8 GEMM workload: m
// contiguous rows of depth k against n filters, run as a FullyConnected.
func NewGEMMBench(m, n, k int, seed int64) (*GEMMBench, error) {
	if m < 1 || n < 1 || k < 1 {
		return nil, fmt.Errorf("tflm: GEMM bench shape %dx%dx%d invalid", m, n, k)
	}
	in, w, bias, out := benchTensors([]int{m, k}, []int{n, k}, []int{m, n}, seed)
	pr := prepLinearInt8(in, w, bias, out, ActNone, n, 1, k, 0)
	return &GEMMBench{mRows: m, a: in.I8, w: w.I8, dst: out.I8, pr: pr, xb: make([]uint64, pr.gemmScratchLen())}, nil
}

// NewConvNodeBench builds tiny_conv's Conv2D node (a 1×49×43×1 input, 8
// filters of 10×8, stride 2×2, SAME padding, fused ReLU) with deterministic
// random operands. Run is the node as Invoke runs it: the copy of the
// input's interior rows into the padded image, then the implicit-GEMM
// kernel and its requantization over the 25×22 output positions.
func NewConvNodeBench(seed int64) *GEMMBench {
	in, w, bias, out := benchTensors([]int{1, 49, 43, 1}, []int{8, 10, 8, 1}, []int{1, 25, 22, 8}, seed)
	m := &Model{Tensors: []*Tensor{in, w, bias, out}}
	n := Node{Op: OpConv2D, Inputs: []int{0, 1, 2}, Outputs: []int{3},
		Params: Conv2DParams{StrideH: 2, StrideW: 2, Padding: PaddingSame, Activation: ActReLU}}
	cp := prepConvInt8(in, w, bias, out, windowGeom(m, n), ActReLU)
	return &GEMMBench{mRows: cp.g.M, a: in.I8, w: w.I8, dst: out.I8, pr: cp.pr, conv: cp, xb: make([]uint64, cp.pr.gemmScratchLen())}
}

// MACs returns the multiply-accumulate count of one Run.
func (gb *GEMMBench) MACs() int { return gb.mRows * gb.pr.n * gb.pr.k }

// Run executes the kernel once over the prepped operands (no allocation).
func (gb *GEMMBench) Run() {
	if gb.conv != nil {
		gb.conv.run(gb.a, gb.conv.img, gb.dst, gb.xb)
		return
	}
	gb.pr.fcRows(gb.a, gb.dst, gb.mRows, gb.xb)
}

// Check verifies the first and last output positions against a scalar
// wrapped int32 accumulation over the source weight matrix (for the conv
// node, over the input window with padding read as the input zero point)
// — a cheap self-test so a bench refactor cannot silently measure a broken
// kernel.
func (gb *GEMMBench) Check() error {
	pr := gb.pr
	n, k := pr.n, pr.k
	for _, m := range []int{0, gb.mRows - 1} {
		patch := gb.patch(m)
		for o := 0; o < n; o++ {
			acc := pr.acc0[o]
			for i, w := range gb.w[o*k : (o+1)*k] {
				acc += int32(patch[i]) * int32(w)
			}
			want := int8(clampInt32(pr.mult.Apply(acc)+pr.rq.outZP, pr.rq.lo, pr.rq.hi))
			if got := gb.dst[m*n+o]; got != want {
				return fmt.Errorf("tflm: GEMM bench output [%d,%d] = %d, want %d", m, o, got, want)
			}
		}
	}
	return nil
}

// patch returns output position m's k input values in weight order.
func (gb *GEMMBench) patch(m int) []int8 {
	k := gb.pr.k
	if gb.conv == nil {
		return gb.a[m*k : (m+1)*k]
	}
	g := gb.conv.g
	patch := make([]int8, 0, k)
	oy, ox := m/g.outW, m%g.outW
	for ky := 0; ky < g.kH; ky++ {
		for kx := 0; kx < g.kW; kx++ {
			for ic := 0; ic < g.inC; ic++ {
				v := int8(gb.pr.inZP)
				iy, ix := oy*g.strideH-g.padT+ky, ox*g.strideW-g.padL+kx
				if iy >= 0 && iy < g.inH && ix >= 0 && ix < g.inW {
					v = gb.a[(iy*g.inW+ix)*g.inC+ic]
				}
				patch = append(patch, v)
			}
		}
	}
	return patch
}
