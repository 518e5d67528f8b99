//go:build amd64

#include "textflag.h"

// func gemmKernel6x8AVX(a, b, c *float32, k, ldc, mode int)
//
// Strict 256-bit variant of gemmKernel6x8SSE — same packed-panel layout, same
// mode contract (0 = C = acc, 1 = C += acc, 2 = acc preloaded from C), and
// the SAME floating-point semantics: each C element is updated by a separate
// single-rounded VMULPS followed by a single-rounded VADDPS in ascending-p
// order, exactly the operation sequence of the SSE kernel and the portable
// goGemmKernel6x8, just eight lanes at a time instead of four. No FMA — a
// fused multiply-add would skip the round between multiply and add. This
// kernel is therefore bitwise identical to the SSE kernel and safe for every
// bitwise gate; it is selected at package init when the CPU supports AVX
// (cpu_amd64.go).
//
// Register plan: Y10..Y15 hold the 6×8 accumulator (one row each), Y0 holds
// the current B row, Y1 the broadcast A element and Y2 the product. SI walks
// the A panel (+24 bytes per k step), DX the B panel (+32), R8 walks C rows
// by BX = ldc*4 bytes. VZEROUPPER before every RET avoids the AVX-SSE
// transition penalty for the SSE code that follows.
TEXT ·gemmKernel6x8AVX(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ c+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ ldc+32(FP), BX
	MOVQ mode+40(FP), AX
	SHLQ $2, BX            // row stride in bytes

	CMPQ AX, $2
	JEQ  preload

	// modes 0/1: zero the accumulator
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	JMP    kcheck

preload:
	// mode 2: acc = C
	MOVQ    DI, R8
	VMOVUPS (R8), Y10
	ADDQ    BX, R8
	VMOVUPS (R8), Y11
	ADDQ    BX, R8
	VMOVUPS (R8), Y12
	ADDQ    BX, R8
	VMOVUPS (R8), Y13
	ADDQ    BX, R8
	VMOVUPS (R8), Y14
	ADDQ    BX, R8
	VMOVUPS (R8), Y15

kcheck:
	TESTQ CX, CX
	JZ    store

kloop:
	VMOVUPS      (DX), Y0   // b[p][0:8]
	VBROADCASTSS (SI), Y1   // a[p][0]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y10, Y10
	VBROADCASTSS 4(SI), Y1  // a[p][1]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y11, Y11
	VBROADCASTSS 8(SI), Y1  // a[p][2]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y12, Y12
	VBROADCASTSS 12(SI), Y1 // a[p][3]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y13, Y13
	VBROADCASTSS 16(SI), Y1 // a[p][4]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y14, Y14
	VBROADCASTSS 20(SI), Y1 // a[p][5]
	VMULPS       Y0, Y1, Y2
	VADDPS       Y2, Y15, Y15

	ADDQ $24, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  kloop

store:
	CMPQ AX, $1
	JEQ  addstore

	// modes 0/2: C = acc
	MOVQ    DI, R8
	VMOVUPS Y10, (R8)
	ADDQ    BX, R8
	VMOVUPS Y11, (R8)
	ADDQ    BX, R8
	VMOVUPS Y12, (R8)
	ADDQ    BX, R8
	VMOVUPS Y13, (R8)
	ADDQ    BX, R8
	VMOVUPS Y14, (R8)
	ADDQ    BX, R8
	VMOVUPS Y15, (R8)
	VZEROUPPER
	RET

addstore:
	// mode 1: C = C + acc, with the loaded C value as the left operand —
	// the same operand roles as the SSE ADDPS, so NaN propagation matches.
	MOVQ    DI, R8
	VMOVUPS (R8), Y0
	VADDPS  Y10, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y11, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y12, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y13, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y14, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    BX, R8
	VMOVUPS (R8), Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (R8)
	VZEROUPPER
	RET
