package tflm

// gemmRowsAVX2 runs count positions of the implicit GEMM against the AVX2
// panel image and requantizes in registers (see gemmRows, which checks the
// ranges first). Implemented in gemm_avx2_amd64.s.
//
//go:noescape
func gemmRowsAVX2(src *int8, stride, count int, dst *int8, n int, w *int16, offs *int32, blocks int, seeds *int32, rq *requantConsts)
