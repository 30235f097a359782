//go:build amd64

#include "textflag.h"

// AVX2 Q31 requantization (see requant.go for the pinned semantics and
// PERF.md for the lane table). One step requantizes 8 channels of a
// row as 8 int32 lanes:
//
//	clamp acc to [aLo, aHi] (VPMAXSD/VPMINSD) → +c (wrapping VPADDD) →
//	two VPMULDQ by m0 (even, odd lanes) → +2^(rsh−1) → r, or past
//	rsh = 32 the product's high dword, as the low dword after VPSRLVQ
//	by min(rsh, 32) (even lanes) or the high dword after VPSLLVQ by
//	max(0, 32−rsh) (odd lanes) → VPSRAVD by max(0, rsh−32) → +zp →
//	pack with saturation to [0, 255] → VPMAXUB lo
//
// Every per-channel operand comes from the layer's lane table (rqLanes,
// built once by NewRequant with the clamp that keeps both dwords exact):
// one rqLanes group of 320 bytes per 8 channels, loaded into Y0–Y9.

// rqLoad loads the lane-table group at R8 into Y0–Y9.
#define rqLoad                 \
	VMOVDQU 0(R8), Y0      \
	VMOVDQU 32(R8), Y1     \
	VMOVDQU 64(R8), Y2     \
	VMOVDQU 96(R8), Y3     \
	VMOVDQU 128(R8), Y4    \
	VMOVDQU 160(R8), Y5    \
	VMOVDQU 192(R8), Y6    \
	VMOVDQU 224(R8), Y7    \
	VMOVDQU 256(R8), Y8    \
	VMOVDQU 288(R8), Y9

// rqChain requantizes the 8 accumulators in v, already raised to aLo,
// into v as 8 dwords r+zp. The even lanes take r (or, past rsh = 32,
// the high dword) from the low dword after a logical right shift, the
// odd lanes from the high dword after a left shift. Clobbers t.
#define rqChain(v, t)                    \
	VPMINSD   Y1, v, v               \
	VPADDD    Y2, v, v               \
	VPSRLQ    $32, v, t              \
	VPMULDQ   Y3, v, v               \
	VPMULDQ   Y4, t, t               \
	VPADDQ    Y5, v, v               \
	VPADDQ    Y6, t, t               \
	VPSRLVQ   Y7, v, v               \
	VPSLLVQ   Y8, t, t               \
	VPBLENDD  $0xAA, t, v, v         \
	VPSRAVD   Y9, v, v               \
	VPADDD    Y10, v, v

// rqPack narrows the dwords of Y12 to bytes saturated to [lo, 255] in
// the low 8 bytes of X12. Clobbers Y14.
#define rqPack                           \
	VEXTRACTI128 $1, Y12, X14        \
	VPACKSSDW X14, X12, X12          \
	VPACKUSWB X12, X12, X12          \
	VPMAXUB   X11, X12, X12

// func requantQ31RowsAVX2(dst *uint8, acc *int32, lanes *rqLanes, zp, lo, m, nc4, lda, ldd int)
//
// Groups of 8 channels, then a group of 4 through masked accumulator
// loads (its lane-table group is padded); each group walks every row
// with Y0–Y9 from the table, Y10 zp and Y11 lo.
TEXT ·requantQ31RowsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ lanes+16(FP), R8
	MOVQ zp+24(FP), AX
	VMOVQ AX, X10
	VPBROADCASTD X10, Y10
	MOVQ lo+32(FP), AX
	VMOVQ AX, X11
	VPBROADCASTB X11, Y11
	MOVQ m+40(FP), R11
	MOVQ nc4+48(FP), R12
	MOVQ lda+56(FP), DX
	SHLQ $2, DX              // row stride in bytes
	MOVQ ldd+64(FP), R14
	XORQ R15, R15            // g: channel group base

group8:
	LEAQ 8(R15), AX
	CMPQ AX, R12
	JGT  group4
	rqLoad
	LEAQ (SI)(R15*4), AX     // &acc[g]
	LEAQ (DI)(R15*1), BX     // &dst[g]
	MOVQ R11, CX
	SHRQ $1, CX              // row pairs
	JZ   row8odd

row8:
	VPMAXSD (AX), Y0, Y12
	VPMAXSD (AX)(DX*1), Y0, Y13
	rqChain(Y12, Y14)
	rqChain(Y13, Y15)
	VPACKSSDW  Y13, Y12, Y12 // lane words: row 0 ch 0–3, row 1 ch 0–3 | ch 4–7
	VPACKUSWB  Y12, Y12, Y12
	VPMAXUB    Y11, Y12, Y12
	VEXTRACTI128 $1, Y12, X14
	VPUNPCKLDQ X14, X12, X12 // row 0 ch 0–7, row 1 ch 0–7
	VMOVQ      X12, (BX)
	VPEXTRQ    $1, X12, (BX)(R14*1)
	LEAQ (AX)(DX*2), AX
	LEAQ (BX)(R14*2), BX
	DECQ CX
	JNZ  row8

row8odd:
	TESTQ $1, R11
	JZ    next8
	VPMAXSD (AX), Y0, Y12
	rqChain(Y12, Y14)
	rqPack
	VMOVQ X12, (BX)

next8:
	ADDQ $8, R15
	ADDQ $320, R8            // next lane-table group
	JMP  group8

group4:
	CMPQ R15, R12
	JGE  done
	rqLoad
	VPCMPEQD X13, X13, X13   // lanes 0–3
	LEAQ (SI)(R15*4), AX
	LEAQ (DI)(R15*1), BX
	MOVQ R11, CX

row4:
	VPMASKMOVD (AX), Y13, Y12
	VPMAXSD    Y0, Y12, Y12
	rqChain(Y12, Y14)
	rqPack
	VMOVD X12, (BX)
	ADDQ  DX, AX
	ADDQ  R14, BX
	DECQ  CX
	JNZ   row4

done:
	VZEROUPPER
	RET
