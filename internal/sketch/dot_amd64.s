//go:build !purego

#include "textflag.h"

// func dotAVX2(q *int16, x *int8, n int) int64
//
// Σ q[i]·x[i] over n points, n a multiple of 32 and at most 1<<14 (see
// kernel.go for why that cannot overflow a lane). Each step widens 2 × 16
// codes to int16 (VPMOVSXBW), multiplies them with 2 × 16 query codes and adds
// neighbours into 2 × 8 int32 (VPMADDWD), and adds those into the two
// accumulators Y0 and Y1; the 16 lanes are widened to int64 and summed once,
// after the loop.
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	SHRQ $5, CX
	JZ   reduce

step:
	VPMOVSXBW (DI), Y2
	VPMOVSXBW 16(DI), Y3
	VPMADDWD  (SI), Y2, Y2
	VPMADDWD  32(SI), Y3, Y3
	VPADDD    Y2, Y0, Y0
	VPADDD    Y3, Y1, Y1
	ADDQ      $64, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       step

reduce:
	VPMOVSXDQ    X0, Y2
	VEXTRACTI128 $1, Y0, X0
	VPMOVSXDQ    X0, Y3
	VPADDQ       Y3, Y2, Y2
	VPMOVSXDQ    X1, Y3
	VPADDQ       Y3, Y2, Y2
	VEXTRACTI128 $1, Y1, X1
	VPMOVSXDQ    X1, Y3
	VPADDQ       Y3, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSHUFD      $0xEE, X2, X3
	VPADDQ       X3, X2, X2
	VMOVQ        X2, AX
	VZEROUPPER
	MOVQ         AX, ret+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
