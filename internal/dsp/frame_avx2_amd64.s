#include "textflag.h"

// The AVX2 frame kernel: fftStagePairs' stage pairs and unzipPower's pair
// loop with four complex values per ymm register, on the frontend's
// interleaved {Re, Im} int32 layout. Every lane runs the Go code's
// arithmetic exactly; ARCHITECTURE.md "Kernel tiers" (Tier 5) has the
// proofs that the int32 lanes and the logical 64-bit shift lose nothing.

// signAlt is (-1, 1) per complex lane: VPSIGND with it turns the duplicated
// imaginary twiddle (wi, wi) into (-wi, wi).
DATA signAlt<>+0(SB)/8, $0x00000001ffffffff
DATA signAlt<>+8(SB)/8, $0x00000001ffffffff
DATA signAlt<>+16(SB)/8, $0x00000001ffffffff
DATA signAlt<>+24(SB)/8, $0x00000001ffffffff
GLOBL signAlt<>(SB), RODATA|NOPTR, $32

// TWIDDLE splits four interleaved Q15 twiddles at addr into wre = (wr, wr)
// and wim = (-wi, wi) per complex lane.
#define TWIDDLE(addr, wre, wim) \
	VPSHUFD $0xA0, addr, wre; \
	VPSHUFD $0xF5, addr, wim; \
	VPSIGND Y15, wim, wim

// CMUL sets out = ((w·b) + 16384) >> 16 per complex lane, the rounded Q15
// twiddle product with the stage's 1/2 folded in:
// (wr·br - wi·bi, wr·bi + wi·br) from (wr, wr)·(br, bi) plus
// (-wi, wi)·(bi, br). tmp is clobbered; Y14 holds 16384 in every dword.
#define CMUL(wre, wim, b, out, tmp) \
	VPSHUFD $0xB1, b, tmp; \
	VPMULLD wim, tmp, tmp; \
	VPMULLD wre, b, out; \
	VPADDD  tmp, out, out; \
	VPADDD  Y14, out, out; \
	VPSRAD  $16, out, out

// func stagePairAVX2(z, t1, t2 [][2]int32)
//
// Per 4h-point block with quarters a, b, c, d (h = len(t1) complex values,
// 8h bytes each) and four butterflies k..k+3 per step:
//   stage s:   T = t1·b; (a, b) = (a/2 + T, a/2 - T); the same on (c, d)
//   stage s+1: T = t2[k]·c;   (a, c) = (a/2 + T, a/2 - T)
//              T = t2[h+k]·d; (b, d) = (b/2 + T, b/2 - T)
TEXT ·stagePairAVX2(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), AX
	MOVQ t1_base+24(FP), SI
	MOVQ t1_len+32(FP), R8
	MOVQ t2_base+48(FP), DX
	MOVQ R8, CX
	SHLQ $2, CX               // CX = 4h, points per block
	SHLQ $3, R8               // R8 = 8h, bytes per quarter
	LEAQ (DX)(R8*1), R9       // R9 = &t2[h]
	VMOVDQU signAlt<>(SB), Y15
	MOVL $16384, BX
	VMOVD BX, X14
	VPBROADCASTD X14, Y14

block:
	CMPQ AX, CX
	JLT  done
	LEAQ (DI)(R8*1), R11      // b
	LEAQ (R11)(R8*1), R12     // c
	LEAQ (R12)(R8*1), R13     // d
	XORQ R10, R10             // byte offset of k within a quarter

quad:
	VMOVDQU (DI)(R10*1), Y0
	VMOVDQU (R11)(R10*1), Y1
	VMOVDQU (R12)(R10*1), Y2
	VMOVDQU (R13)(R10*1), Y3
	VMOVDQU (SI)(R10*1), Y7
	TWIDDLE(Y7, Y8, Y9)

	// Stage s on (a, b) and (c, d) with t1[k].
	CMUL(Y8, Y9, Y1, Y4, Y5)
	VPSRAD $1, Y0, Y0
	VPSUBD Y4, Y0, Y1
	VPADDD Y4, Y0, Y0
	CMUL(Y8, Y9, Y3, Y4, Y5)
	VPSRAD $1, Y2, Y2
	VPSUBD Y4, Y2, Y3
	VPADDD Y4, Y2, Y2

	// Stage s+1 on (a, c) with t2[k].
	VMOVDQU (DX)(R10*1), Y7
	TWIDDLE(Y7, Y8, Y9)
	CMUL(Y8, Y9, Y2, Y4, Y5)
	VPSRAD  $1, Y0, Y0
	VPADDD  Y4, Y0, Y5
	VPSUBD  Y4, Y0, Y6
	VMOVDQU Y5, (DI)(R10*1)
	VMOVDQU Y6, (R12)(R10*1)

	// Stage s+1 on (b, d) with t2[h+k].
	VMOVDQU (R9)(R10*1), Y7
	TWIDDLE(Y7, Y8, Y9)
	CMUL(Y8, Y9, Y3, Y4, Y5)
	VPSRAD  $1, Y1, Y1
	VPADDD  Y4, Y1, Y5
	VPSUBD  Y4, Y1, Y6
	VMOVDQU Y5, (R11)(R10*1)
	VMOVDQU Y6, (R13)(R10*1)

	ADDQ $32, R10
	CMPQ R10, R8
	JLT  quad

	LEAQ (R13)(R8*1), DI      // next block
	SUBQ CX, AX
	JMP  block

done:
	VZEROUPPER
	RET

// func unzipPowerAVX2(z, post [][2]int32, pow []uint64, groups int)
//
// Four (k, j = m-k) pairs per step, m = len(pow): K = z[k..k+3] and
// J = z[j-3..j] reversed by VPERMQ, so lane i pairs k+i with j-i. Then
// K + J = (er2, or2) and K - J = (-oi2, ei2) per lane, and with
// (cw, sw) = post[k+i]:
//   p1 = cw·or2 + sw·(-oi2)      p2 = sw·or2 - cw·(-oi2)
//   X[k] = (er2·2^15 + p1 + 2^16, ei2·2^15 + p2 + 2^16) >> 17
//   X[j] = (er2·2^15 - p1 + 2^16, -ei2·2^15 + p2 + 2^16) >> 17
// with every product a signed 32×32→64 VPMULDQ on the low dwords (VPSRLQ
// $32 brings a high dword down first). The shift is a logical VPSRLQ:
// only its low 32 bits are kept, and those agree with an arithmetic shift.
// pow[k] and pow[j] are the VPMULDQ squares of those low dwords, summed.
TEXT ·unzipPowerAVX2(SB), NOSPLIT, $0-80
	MOVQ z_base+0(FP), SI
	MOVQ post_base+24(FP), DX
	MOVQ pow_base+48(FP), R8
	MOVQ pow_len+56(FP), AX
	MOVQ groups+72(FP), CX
	LEAQ -32(SI)(AX*8), DI    // &z[m-4]: J of the first step
	LEAQ -32(R8)(AX*8), R9    // &pow[m-4]
	ADDQ $8, SI               // &z[1]
	ADDQ $8, DX               // &post[1]
	ADDQ $8, R8               // &pow[1]
	MOVL $32768, BX
	VMOVD BX, X15
	VPBROADCASTD X15, Y15     // 2^15 in every low dword
	MOVQ $65536, BX
	VMOVQ BX, X14
	VPBROADCASTQ X14, Y14     // rounding term 2^16 per qword
	TESTQ CX, CX
	JZ    unzipdone

unzip:
	VMOVDQU (SI), Y0
	VPERMQ  $0x1B, (DI), Y1
	VMOVDQU (DX), Y2          // (cw, sw)
	VPADDD  Y1, Y0, Y3        // (er2, or2)
	VPSUBD  Y1, Y0, Y4        // (-oi2, ei2)
	VPSRLQ  $32, Y3, Y5       // or2
	VPSRLQ  $32, Y4, Y6       // ei2
	VPSRLQ  $32, Y2, Y7       // sw
	VPMULDQ Y2, Y5, Y8        // cw·or2
	VPMULDQ Y7, Y4, Y9        // sw·(-oi2)
	VPADDQ  Y9, Y8, Y8        // p1
	VPMULDQ Y7, Y5, Y9        // sw·or2
	VPMULDQ Y2, Y4, Y10       // cw·(-oi2)
	VPSUBQ  Y10, Y9, Y9       // p2
	VPMULDQ Y15, Y3, Y3       // er2·2^15
	VPMULDQ Y15, Y6, Y6       // ei2·2^15
	VPADDQ  Y14, Y3, Y3
	VPADDQ  Y14, Y9, Y9
	VPADDQ  Y8, Y3, Y10       // Re X[k] << 17
	VPSUBQ  Y8, Y3, Y11       // Re X[j] << 17
	VPADDQ  Y6, Y9, Y12       // Im X[k] << 17
	VPSUBQ  Y6, Y9, Y13       // Im X[j] << 17
	VPSRLQ  $17, Y10, Y10
	VPSRLQ  $17, Y11, Y11
	VPSRLQ  $17, Y12, Y12
	VPSRLQ  $17, Y13, Y13
	VPMULDQ Y10, Y10, Y10
	VPMULDQ Y12, Y12, Y12
	VPADDQ  Y12, Y10, Y10     // pow[k..k+3]
	VPMULDQ Y11, Y11, Y11
	VPMULDQ Y13, Y13, Y13
	VPADDQ  Y13, Y11, Y11     // pow[j..j-3]
	VPERMQ  $0x1B, Y11, Y11
	VMOVDQU Y10, (R8)
	VMOVDQU Y11, (R9)
	ADDQ    $32, SI
	SUBQ    $32, DI
	ADDQ    $32, DX
	ADDQ    $32, R8
	SUBQ    $32, R9
	DECQ    CX
	JNZ     unzip

unzipdone:
	VZEROUPPER
	RET

// WINDOWED sets r to gatherFrame's pre-halved windowed sample
// ((s·w/2) >> 15) >> 1 for the samples in s, selected by the window mask
// (Y11 keeps the even sample's window, Y10 the odd one's) from the window
// pairs at win: VPMADDWD against a pair with one half zeroed is the single
// int16 product s·w, and the truncating /2 then >> 16 is (p + sign) >> 17.
#define WINDOWED(win, mask, s, r, tmp) \
	VPAND    win, mask, r; \
	VPMADDWD r, s, r; \
	VPSRLD   $31, r, tmp; \
	VPADDD   tmp, r, r; \
	VPSRAD   $17, r, r

// GATHER loads the sample pair (s[i], s[i+1]) of eight blocks, at
// i = base[q] plus the quarter offset already in the base register.
#define GATHER(frame, s) \
	VMOVDQA    Y12, Y9; \
	VPGATHERDD Y9, (frame)(Y0*2), s

// func gatherFrameAVX2(z [][2]int32, frame []int16, gwin []uint32, base []int32)
//
// gatherFrame for eight blocks per step, one block per dword lane: the
// four windowed sample pairs of each block come from VPGATHERDD at
// base[q] in each quarter of the frame, their windows from gwin (laid out
// per step as four quarters of eight (w[i], w[i+1]) int16 pairs, see
// NewFrontend). Stages 1 and 2 then run lane-wise, and an 8×8 dword
// transpose turns the eight per-component vectors into the eight blocks'
// z[4q..4q+3]. The caller guarantees len(base) is a multiple of 8, every
// base[q] + 3·len(frame)/4 + 1 < len(frame), len(gwin) = 4·len(base) and
// len(z) ≥ 4·len(base).
TEXT ·gatherFrameAVX2(SB), NOSPLIT, $0-96
	MOVQ z_base+0(FP), DI
	MOVQ frame_base+24(FP), R8
	MOVQ frame_len+32(FP), AX
	MOVQ gwin_base+48(FP), DX
	MOVQ base_base+72(FP), BX
	MOVQ base_len+80(FP), CX
	SHRQ $1, AX               // bytes per quarter: 2·len(frame)/4
	LEAQ (R8)(AX*2), R9       // quarter 2: the second input of stage 1
	LEAQ (R8)(AX*1), R10      // quarter 1
	LEAQ (R9)(AX*1), R11      // quarter 3
	VPCMPEQD Y12, Y12, Y12    // gather mask: every lane
	VPSRLD   $16, Y12, Y11    // even-sample window half
	VPSLLD   $16, Y12, Y10    // odd-sample window half
	SHRQ     $3, CX
	JZ       gatherdone

gather:
	VMOVDQU (BX), Y0

	// Blocks' inputs 0 and 1 → stage 1 → (ar, ai) in Y6, Y7, (br, bi) in Y2, Y3.
	GATHER(R8, Y1)
	WINDOWED((DX), Y11, Y1, Y2, Y13)
	WINDOWED((DX), Y10, Y1, Y3, Y13)
	GATHER(R9, Y1)
	WINDOWED(32(DX), Y11, Y1, Y4, Y13)
	WINDOWED(32(DX), Y10, Y1, Y5, Y13)
	VPADDD Y4, Y2, Y6
	VPSUBD Y4, Y2, Y2
	VPADDD Y5, Y3, Y7
	VPSUBD Y5, Y3, Y3
	VPSRAD $1, Y6, Y6
	VPSRAD $1, Y2, Y2
	VPSRAD $1, Y7, Y7
	VPSRAD $1, Y3, Y3

	// Inputs 2 and 3 → stage 1 → (cr, ci) in Y1, Y8, (dr, di) in Y4, Y5.
	GATHER(R10, Y1)
	WINDOWED(64(DX), Y11, Y1, Y4, Y13)
	WINDOWED(64(DX), Y10, Y1, Y5, Y13)
	GATHER(R11, Y1)
	WINDOWED(96(DX), Y11, Y1, Y8, Y13)
	WINDOWED(96(DX), Y10, Y1, Y14, Y13)
	VPADDD Y8, Y4, Y1
	VPSUBD Y8, Y4, Y4
	VPADDD Y14, Y5, Y8
	VPSUBD Y14, Y5, Y5
	VPSRAD $1, Y1, Y1
	VPSRAD $1, Y4, Y4
	VPSRAD $1, Y8, Y8
	VPSRAD $1, Y5, Y5

	// Stage 2: W = 1 on (a, c), W = -i on (b, d).
	VPADDD Y1, Y6, Y9         // z0 re
	VPSUBD Y1, Y6, Y6         // z2 re
	VPADDD Y8, Y7, Y1         // z0 im
	VPSUBD Y8, Y7, Y7         // z2 im
	VPADDD Y5, Y2, Y8         // z1 re = br + di
	VPSUBD Y5, Y2, Y2         // z3 re = br - di
	VPSUBD Y4, Y3, Y5         // z1 im = bi - dr
	VPADDD Y4, Y3, Y3         // z3 im = bi + dr

	// Transpose rows (z0r, z0i, z1r, z1i, z2r, z2i, z3r, z3i) =
	// (Y9, Y1, Y8, Y5, Y6, Y7, Y2, Y3), one lane per block, into one row
	// per block.
	VPUNPCKLDQ  Y1, Y9, Y0
	VPUNPCKHDQ  Y1, Y9, Y4
	VPUNPCKLDQ  Y5, Y8, Y9
	VPUNPCKHDQ  Y5, Y8, Y1
	VPUNPCKLDQ  Y7, Y6, Y8
	VPUNPCKHDQ  Y7, Y6, Y5
	VPUNPCKLDQ  Y3, Y2, Y6
	VPUNPCKHDQ  Y3, Y2, Y7
	VPUNPCKLQDQ Y9, Y0, Y2    // blocks 0, 4: z0, z1
	VPUNPCKHQDQ Y9, Y0, Y3    // blocks 1, 5
	VPUNPCKLQDQ Y1, Y4, Y0    // blocks 2, 6
	VPUNPCKHQDQ Y1, Y4, Y9    // blocks 3, 7
	VPUNPCKLQDQ Y6, Y8, Y4    // blocks 0, 4: z2, z3
	VPUNPCKHQDQ Y6, Y8, Y1
	VPUNPCKLQDQ Y7, Y5, Y8
	VPUNPCKHQDQ Y7, Y5, Y6
	VPERM2I128  $0x20, Y4, Y2, Y5
	VPERM2I128  $0x31, Y4, Y2, Y7
	VMOVDQU     Y5, (DI)
	VMOVDQU     Y7, 128(DI)
	VPERM2I128  $0x20, Y1, Y3, Y5
	VPERM2I128  $0x31, Y1, Y3, Y7
	VMOVDQU     Y5, 32(DI)
	VMOVDQU     Y7, 160(DI)
	VPERM2I128  $0x20, Y8, Y0, Y5
	VPERM2I128  $0x31, Y8, Y0, Y7
	VMOVDQU     Y5, 64(DI)
	VMOVDQU     Y7, 192(DI)
	VPERM2I128  $0x20, Y6, Y9, Y5
	VPERM2I128  $0x31, Y6, Y9, Y7
	VMOVDQU     Y5, 96(DI)
	VMOVDQU     Y7, 224(DI)

	ADDQ $32, BX
	ADDQ $128, DX
	ADDQ $256, DI
	DECQ CX
	JNZ  gather

gatherdone:
	VZEROUPPER
	RET
