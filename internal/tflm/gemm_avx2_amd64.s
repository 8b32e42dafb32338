#include "textflag.h"
#include "go_asm.h"

// 2^30, the rounding term of the high multiply, as one qword.
DATA rqHalf<>+0(SB)/8, $0x40000000
GLOBL rqHalf<>(SB), RODATA|NOPTR, $8

// func gemmRowsAVX2(src *int8, stride, count int, dst *int8, n int, w *int16, offs *int32, blocks int, seeds *int32, rq *requantConsts)
//
// Runs count positions of the implicit GEMM (gemm.go, gemmRows): position i
// reads from src + i·stride and writes its n int8 outputs to dst + i·n.
// For each position and each eight-filter panel of the weight image
// (packPanelsAVX2 over implicitLayout's half order), every 16-depth block
// loads its two 8-byte halves from the offset table (VMOVQ, VPINSRQ),
// sign-extends the 16 activations once (VPMOVSXBW) and multiplies them
// against each filter's 16 int16 weights by VPMADDWD, which adds adjacent
// products into eight int32 lanes; one wrapping VPADDD per filter
// accumulates them in Y0..Y7. Two VPHADDD rounds leave filter j's low- and
// high-half partial sums in lane j%4 of the low and high 128-bit halves,
// and VPERM2I128 lines the halves up for one final VPADDD.
//
// The epilogue is QuantizedMultiplier.Apply on the eight sums in registers
// (see requantOne): add the seeds and shift left by lsh; multiply the even
// and the odd lanes by mult into 64-bit products (VPMULDQ); add 2^30 and
// keep bits 31..62 (the low dword of a logical >>31, which equals the
// arithmetic one on those bits); divide by 2^rsh rounding half away from
// zero with the mask and threshold; add outZP, clamp to [lo, hi] and pack
// to bytes. A partial last panel stores only its n%8 live bytes.
TEXT ·gemmRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ src+0(FP), SI
	MOVQ count+16(FP), R12
	MOVQ dst+24(FP), DI
	MOVQ rq+72(FP), R11

position:
	MOVQ w+40(FP), R9
	MOVQ seeds+64(FP), R10
	MOVQ n+32(FP), BX

panel:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  offs+48(FP), R8
	MOVQ  blocks+56(FP), CX

block:
	MOVLQSX   (R8), AX
	MOVLQSX   4(R8), DX
	VMOVQ     (SI)(AX*1), X8
	VPINSRQ   $1, (SI)(DX*1), X8, X8
	VPMOVSXBW X8, Y8
	VPMADDWD  (R9), Y8, Y9
	VPADDD    Y9, Y0, Y0
	VPMADDWD  32(R9), Y8, Y10
	VPADDD    Y10, Y1, Y1
	VPMADDWD  64(R9), Y8, Y11
	VPADDD    Y11, Y2, Y2
	VPMADDWD  96(R9), Y8, Y12
	VPADDD    Y12, Y3, Y3
	VPMADDWD  128(R9), Y8, Y13
	VPADDD    Y13, Y4, Y4
	VPMADDWD  160(R9), Y8, Y14
	VPADDD    Y14, Y5, Y5
	VPMADDWD  192(R9), Y8, Y15
	VPADDD    Y15, Y6, Y6
	VPMADDWD  224(R9), Y8, Y9
	VPADDD    Y9, Y7, Y7
	ADDQ      $8, R8
	ADDQ      $256, R9
	DECQ      CX
	JNZ       block

	// Fold the eight accumulators into the panel's eight sums in Y1.
	VPHADDD    Y1, Y0, Y0
	VPHADDD    Y3, Y2, Y2
	VPHADDD    Y5, Y4, Y4
	VPHADDD    Y7, Y6, Y6
	VPHADDD    Y2, Y0, Y0
	VPHADDD    Y6, Y4, Y4
	VPERM2I128 $0x20, Y4, Y0, Y1
	VPERM2I128 $0x31, Y4, Y0, Y2
	VPADDD     Y2, Y1, Y1

	// x = (seed + sum) << lsh.
	VPADDD (R10), Y1, Y1
	VMOVD  requantConsts_lsh(R11), X2
	VPSLLD X2, Y1, Y1

	// v = (x·mult + 2^30) >> 31, even lanes in Y4, odd lanes in Y5.
	VPBROADCASTD requantConsts_mult(R11), Y3
	VPBROADCASTQ rqHalf<>(SB), Y6
	VPMULDQ      Y3, Y1, Y4
	VPSRLQ       $32, Y1, Y5
	VPMULDQ      Y3, Y5, Y5
	VPADDQ       Y6, Y4, Y4
	VPADDQ       Y6, Y5, Y5
	VPSRLQ       $31, Y4, Y4
	VPSLLQ       $1, Y5, Y5
	VPBLENDD     $0xAA, Y5, Y4, Y1

	// Rounding divide by 2^rsh: (v >> rsh) + (rem > thr + (v < 0)).
	VMOVD        requantConsts_rsh(R11), X2
	VPSRAD       X2, Y1, Y3
	VPBROADCASTD requantConsts_mask(R11), Y4
	VPAND        Y4, Y1, Y4
	VPSRAD       $31, Y1, Y5
	VPBROADCASTD requantConsts_thr(R11), Y6
	VPSUBD       Y5, Y6, Y6
	VPCMPGTD     Y6, Y4, Y4
	VPSUBD       Y4, Y3, Y1

	// + outZP, clamp, pack the eight int32 lanes to bytes in X1's low qword.
	VPBROADCASTD requantConsts_outZP(R11), Y2
	VPADDD       Y2, Y1, Y1
	VPBROADCASTD requantConsts_lo(R11), Y2
	VPMAXSD      Y2, Y1, Y1
	VPBROADCASTD requantConsts_hi(R11), Y2
	VPMINSD      Y2, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPACKSSDW    X2, X1, X1
	VPACKSSWB    X1, X1, X1

	CMPQ  BX, $8
	JLT   partial
	VMOVQ X1, (DI)
	ADDQ  $8, DI
	ADDQ  $32, R10
	SUBQ  $8, BX
	JNZ   panel
	JMP   next

partial:
	VMOVQ X1, AX

tail:
	MOVB AL, (DI)
	SHRQ $8, AX
	INCQ DI
	DECQ BX
	JNZ  tail

next:
	ADDQ stride+8(FP), SI
	DECQ R12
	JNZ  position
	VZEROUPPER
	RET
