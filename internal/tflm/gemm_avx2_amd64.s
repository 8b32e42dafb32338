#include "textflag.h"

// func dot8AVX2(a *int8, w *int16, blocks int, sums *[8]int32)
//
// sums[j] = Σ a[i]·w_j[i] over blocks·16 depths, wrapped to int32, for the
// eight filters of one AVX2 panel (layout in gemm.go, packPanelsAVX2). Per
// 16-depth block the activation bytes are sign-extended once (VPMOVSXBW)
// and multiplied against each filter's 16 int16 weights by VPMADDWD, which
// adds adjacent products into eight int32 lanes; one wrapping VPADDD per
// filter accumulates them in Y0..Y7. The epilogue folds each accumulator's
// eight lanes: two VPHADDD rounds leave filter j's low- and high-half
// partial sums in lane j%4 of the low and high 128-bit halves, and
// VPERM2I128 lines the halves up for one final VPADDD.
TEXT ·dot8AVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ blocks+16(FP), CX
	MOVQ sums+24(FP), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	TESTQ CX, CX
	JZ    reduce

loop:
	VPMOVSXBW (SI), Y8
	VPMADDWD  (DI), Y8, Y9
	VPADDD    Y9, Y0, Y0
	VPMADDWD  32(DI), Y8, Y10
	VPADDD    Y10, Y1, Y1
	VPMADDWD  64(DI), Y8, Y11
	VPADDD    Y11, Y2, Y2
	VPMADDWD  96(DI), Y8, Y12
	VPADDD    Y12, Y3, Y3
	VPMADDWD  128(DI), Y8, Y13
	VPADDD    Y13, Y4, Y4
	VPMADDWD  160(DI), Y8, Y14
	VPADDD    Y14, Y5, Y5
	VPMADDWD  192(DI), Y8, Y15
	VPADDD    Y15, Y6, Y6
	VPMADDWD  224(DI), Y8, Y9
	VPADDD    Y9, Y7, Y7
	ADDQ      $16, SI
	ADDQ      $256, DI
	DECQ      CX
	JNZ       loop

reduce:
	VPHADDD    Y1, Y0, Y0
	VPHADDD    Y3, Y2, Y2
	VPHADDD    Y5, Y4, Y4
	VPHADDD    Y7, Y6, Y6
	VPHADDD    Y2, Y0, Y0
	VPHADDD    Y6, Y4, Y4
	VPERM2I128 $0x20, Y4, Y0, Y1
	VPERM2I128 $0x31, Y4, Y0, Y2
	VPADDD     Y2, Y1, Y1
	VMOVDQU    Y1, (DX)
	VZEROUPPER
	RET
