//go:build amd64 && !race

#include "textflag.h"

// func streamLine(dst, src unsafe.Pointer)
//
// Copies the 64-byte line at src to dst with eight MOVNTI stores, which
// write around the cache: the destination line is never read for
// ownership. MOVNTI has no alignment requirement, so dst may start at any
// element of a key column.
TEXT ·streamLine(SB), NOSPLIT, $0-16
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ 0(SI), AX
	MOVQ 8(SI), BX
	MOVQ 16(SI), CX
	MOVQ 24(SI), DX
	MOVQ 32(SI), R8
	MOVQ 40(SI), R9
	MOVQ 48(SI), R10
	MOVQ 56(SI), R11
	MOVNTIQ AX, 0(DI)
	MOVNTIQ BX, 8(DI)
	MOVNTIQ CX, 16(DI)
	MOVNTIQ DX, 24(DI)
	MOVNTIQ R8, 32(DI)
	MOVNTIQ R9, 40(DI)
	MOVNTIQ R10, 48(DI)
	MOVNTIQ R11, 56(DI)
	RET

// func storeFence()
TEXT ·storeFence(SB), NOSPLIT, $0-0
	SFENCE
	RET
