package tflm

// dot8AVX2 computes the eight wrapped int32 dot products of one activation
// row (blocks·16 int8 values at a) with one AVX2 weight panel (at w, see
// packPanelsAVX2) into sums. Implemented in gemm_avx2_amd64.s.
//
//go:noescape
func dot8AVX2(a *int8, w *int16, blocks int, sums *[avx2Panel]int32)
