#include "textflag.h"

// func HasAVX2() bool
//
// AVX2 is usable when CPUID leaf 7 reports it (EBX bit 5) and the OS saves
// the ymm state: CPUID leaf 1 reports OSXSAVE and AVX (ECX bits 27 and 28)
// and XCR0 enables the SSE and AVX state components (bits 1 and 2).
TEXT ·HasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   done
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    done
	MOVB  $1, ret+0(FP)

done:
	RET
