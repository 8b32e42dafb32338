//go:build !amd64

package tflm

// gemmRowsAVX2 is never reached off amd64, where prep never builds an AVX2
// panel image.
func gemmRowsAVX2(src *int8, stride, count int, dst *int8, n int, w *int16, offs *int32, blocks int, seeds *int32, rq *requantConsts) {
	panic("tflm: AVX2 GEMM kernel called off amd64")
}
