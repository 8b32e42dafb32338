package tflm

import (
	"math"
	"testing"

	"repro/internal/cpufeat"
)

// gemmKernelCases are the two GEMM kernels prep can select: the SWAR
// panels, available everywhere, and the AVX2 image, available on amd64
// hosts whose CPU and OS support AVX2.
var gemmKernelCases = []struct {
	name string
	avx2 bool
}{{"swar", false}, {"avx2", true}}

// useGEMMKernel points prep at one GEMM kernel and returns the function
// that restores the previous choice.
func useGEMMKernel(avx2 bool) (restore func()) {
	saved := useAVX2
	useAVX2 = avx2
	return func() { useAVX2 = saved }
}

// forEachGEMMKernel runs fn as one subtest per GEMM kernel with useAVX2 set
// accordingly, so every linear op fn preps — directly or through
// NewInterpreter — builds that kernel's weight image. The AVX2 subtest
// skips on hosts without AVX2. Tests using it must not run in parallel.
func forEachGEMMKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, kc := range gemmKernelCases {
		t.Run(kc.name, func(t *testing.T) {
			if kc.avx2 && !cpufeat.HasAVX2() {
				t.Skip("CPU or OS lacks AVX2")
			}
			defer useGEMMKernel(kc.avx2)()
			fn(t)
		})
	}
}

// TestGEMMPrepBuildsOneImage: prep builds the selected kernel's weight
// image and not the other one, and for both tiny_conv shapes the AVX2
// image is no larger than the SWAR panels it replaces.
func TestGEMMPrepBuildsOneImage(t *testing.T) {
	for _, shape := range []struct{ n, k int }{{8, 80}, {12, 4400}} {
		var bytes [2]int
		for i, kc := range gemmKernelCases {
			if kc.avx2 && !cpufeat.HasAVX2() {
				t.Skip("CPU or OS lacks AVX2")
			}
			restore := useGEMMKernel(kc.avx2)
			gb, err := NewGEMMBench(3, shape.n, shape.k, 1)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			pr := gb.pr
			if kc.avx2 != (pr.wq != nil) || kc.avx2 == (pr.panels != nil) {
				t.Fatalf("%s n=%d k=%d: wq set %v, panels set %v", kc.name, shape.n, shape.k, pr.wq != nil, pr.panels != nil)
			}
			bytes[i] = 2*len(pr.wq) + 8*gemmPanel*len(pr.panels)
		}
		if bytes[1] > bytes[0] {
			t.Fatalf("n=%d k=%d: AVX2 image %d B larger than SWAR panels %d B", shape.n, shape.k, bytes[1], bytes[0])
		}
	}
}

// FuzzGEMMKernel checks both GEMM kernels against the scalar reference on
// every fuzzed shape: m ∈ [1,8] rows, n ∈ [1,24] filters (so n%8 and n%4
// take every residue), k ∈ [1,4400] depths (every residue mod 16 and mod
// 3), any input zero point and a requant shift. Activations and weights
// cycle through data, so a one-byte 0x80 input is the all −128 corner.
// The checked-in corpus (testdata/fuzz/FuzzGEMMKernel) pins k = 1, 15, 17,
// 80 and 4400, partial panels of both grids and that corner under a
// nonzero input zero point.
//
// Two levels are compared. The kernels are called directly on each row:
// dot8AVX2 on the packed AVX2 panels, and swarExpandRow + gemmRowPanel on
// the SWAR panels with the seeds folded in; each must equal acc0 plus the
// wrapped int32 dot product exactly, before requantization can hide an
// error. Then gemmInt8Requant under each kernel, given dirty scratch, must
// equal evalFullyConnectedRef (op_ref_test.go) byte for byte.
func FuzzGEMMKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, mb, nb uint8, kb uint16, inZP int8, shift uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		m, n, k := 1+int(mb%8), 1+int(nb%24), 1+int(kb%4400)
		in := &Tensor{Name: "in", Type: Int8, Shape: []int{m, k}, Quant: &QuantParams{Scale: 1, ZeroPoint: int32(inZP)}}
		in.Alloc()
		w := &Tensor{Name: "w", Type: Int8, Shape: []int{n, k}, Quant: &QuantParams{Scale: 1}}
		w.Alloc()
		for i := range in.I8 {
			in.I8[i] = int8(data[i%len(data)])
		}
		for i := range w.I8 {
			w.I8[i] = int8(data[(len(in.I8)+i)%len(data)])
		}
		bias := &Tensor{Name: "b", Type: Int32, Shape: []int{n}}
		bias.Alloc()
		for i := range bias.I32 {
			bias.I32[i] = int32(i%7) - 3
		}
		outQ := &QuantParams{Scale: math.Ldexp(1.37, int(shift%24)), ZeroPoint: int32(inZP) / 2}
		want := &Tensor{Name: "out", Type: Int8, Shape: []int{m, n}, Quant: outQ}
		want.Alloc()
		if err := evalFullyConnectedRef(in, w, bias, want, FullyConnectedParams{}); err != nil {
			t.Fatal(err)
		}
		for _, kc := range gemmKernelCases {
			if kc.avx2 && !cpufeat.HasAVX2() {
				continue
			}
			got := &Tensor{Name: "out", Type: Int8, Shape: []int{m, n}, Quant: outQ}
			got.Alloc()
			restore := useGEMMKernel(kc.avx2)
			pr := prepLinearInt8(in, w, bias, got, ActNone, n, k)
			restore()
			for r := 0; r < m; r++ {
				row := in.I8[r*k : (r+1)*k]
				accs := rawAccumulators(pr, row)
				for o := 0; o < n; o++ {
					if exact := pr.acc0[o] + refDotI8(row, w.I8[o*k:(o+1)*k]); accs[o] != exact {
						t.Fatalf("%s m=%d n=%d k=%d: row %d filter %d accumulator %d, want %d", kc.name, m, n, k, r, o, accs[o], exact)
					}
				}
			}
			// The scratch holds another op's leftovers in a shared arena;
			// the kernel must not depend on its contents.
			xb := make([]uint64, pr.gemmScratchLen())
			fillSlice(xb, ^uint64(0))
			gemmInt8Requant(m, in.I8, got.I8, pr, xb)
			for i := range got.I8 {
				if got.I8[i] != want.I8[i] {
					t.Fatalf("%s m=%d n=%d k=%d inZP=%d: output %d = %d, want %d", kc.name, m, n, k, inZP, i, got.I8[i], want.I8[i])
				}
			}
		}
	})
}

// rawAccumulators returns the seeded int32 accumulators the prepped kernel
// produces for one activation row, one per filter, before requantization.
func rawAccumulators(pr *linearPrep, row []int8) []int32 {
	accs := make([]int32, 0, len(pr.seeds))
	if pr.wq != nil {
		padded := make([]int8, pr.kb*avx2Depth)
		copy(padded, row)
		var sums [avx2Panel]int32
		for p := 0; p < len(pr.seeds)/avx2Panel; p++ {
			dot8AVX2(&padded[0], &pr.wq[p*pr.kb*avx2Panel*avx2Depth], pr.kb, &sums)
			for j, s := range sums {
				accs = append(accs, pr.seeds[p*avx2Panel+j]+s)
			}
		}
		return accs
	}
	x := make([]uint64, pr.kg)
	adj := swarExpandRow(row, x)
	for p := 0; p < len(pr.seeds)/gemmPanel; p++ {
		m0, m1, m2, m3 := gemmRowPanel(x, pr.panels[p*pr.kg:(p+1)*pr.kg])
		for j, mid := range [gemmPanel]uint64{m0, m1, m2, m3} {
			accs = append(accs, pr.seeds[p*gemmPanel+j]+adj+int32(mid))
		}
	}
	return accs
}
