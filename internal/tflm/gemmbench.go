package tflm

import (
	"fmt"
	"math/rand"
)

// GEMMBench pins one prepped int8 GEMM invocation — the selected kernel's
// weight panel image, hoisted requant constants, caller-owned scratch — so
// the micro-benchmark
// habit survives kernel retunes: BenchmarkGEMMMicroKernel (bench_test.go)
// measures the inner kernel in isolation, without im2col, graph dispatch or
// frontend noise. Not used on any serving path.
type GEMMBench struct {
	mRows int
	a     []int8
	w     []int8
	dst   []int8
	pr    *linearPrep
	xb    []uint64
}

// NewGEMMBench builds a deterministic m×n×k int8 GEMM workload. The quant
// parameters are fixed plausible values; inputs and weights cover the full
// int8 range including the −128 extremes.
func NewGEMMBench(m, n, k int, seed int64) (*GEMMBench, error) {
	if m < 1 || n < 1 || k < 1 {
		return nil, fmt.Errorf("tflm: GEMM bench shape %dx%dx%d invalid", m, n, k)
	}
	r := rand.New(rand.NewSource(seed))
	in := &Tensor{Name: "a", Type: Int8, Shape: []int{m, k}, Quant: &QuantParams{Scale: 0.5, ZeroPoint: -7}}
	in.Alloc()
	for i := range in.I8 {
		in.I8[i] = int8(r.Intn(256) - 128)
	}
	w := &Tensor{Name: "w", Type: Int8, Shape: []int{n, k}, Quant: &QuantParams{Scale: 0.02, ZeroPoint: 0}}
	w.Alloc()
	for i := range w.I8 {
		w.I8[i] = int8(r.Intn(256) - 128)
	}
	bias := &Tensor{Name: "b", Type: Int32, Shape: []int{n}}
	bias.Alloc()
	for i := range bias.I32 {
		bias.I32[i] = int32(r.Intn(2048) - 1024)
	}
	out := &Tensor{Name: "out", Type: Int8, Shape: []int{m, n}, Quant: &QuantParams{Scale: 0.1, ZeroPoint: 3}}
	out.Alloc()
	pr := prepLinearInt8(in, w, bias, out, ActNone, n, k)
	return &GEMMBench{
		mRows: m,
		a:     in.I8,
		w:     w.I8,
		dst:   out.I8,
		pr:    pr,
		xb:    make([]uint64, pr.gemmScratchLen()),
	}, nil
}

// MACs returns the multiply-accumulate count of one Run.
func (gb *GEMMBench) MACs() int { return gb.mRows * gb.pr.n * gb.pr.k }

// Run executes the kernel once over the prepped operands (no allocation).
func (gb *GEMMBench) Run() {
	gemmInt8Requant(gb.mRows, gb.a, gb.dst, gb.pr, gb.xb)
}

// Check verifies the first and last output rows against the scalar
// reference accumulation (op_ref_test.go's wrapped int32 sum over the source
// weight matrix) — a cheap self-test so a bench refactor cannot silently
// measure a broken kernel.
func (gb *GEMMBench) Check() error {
	n, k := gb.pr.n, gb.pr.k
	for _, m := range []int{0, gb.mRows - 1} {
		row := gb.a[m*k : (m+1)*k]
		for o := 0; o < n; o++ {
			acc := gb.pr.acc0[o]
			for i, w := range gb.w[o*k : (o+1)*k] {
				acc += int32(row[i]) * int32(w)
			}
			want := int8(clampInt32(gb.pr.mult.Apply(acc)+gb.pr.outZP, gb.pr.lo, gb.pr.hi))
			if got := gb.dst[m*n+o]; got != want {
				return fmt.Errorf("tflm: GEMM bench output [%d,%d] = %d, want %d", m, o, got, want)
			}
		}
	}
	return nil
}
