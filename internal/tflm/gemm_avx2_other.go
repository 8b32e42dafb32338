//go:build !amd64

package tflm

// dot8AVX2 is never reached off amd64, where prep never builds an AVX2
// panel image.
func dot8AVX2(a *int8, w *int16, blocks int, sums *[avx2Panel]int32) {
	panic("tflm: AVX2 GEMM kernel called off amd64")
}
