//go:build arm64

#include "textflag.h"

// NEON Q31 requantization kernel (see requant.go for the pinned
// semantics). The per-lane chain maps 1:1 onto NEON saturating ops:
//
//	sxtl/sxtl2 widen the four int32 accumulators to 2×int64 → add
//	corr (2D) → sqxtn/sqxtn2 narrow with saturation = sat32(acc+corr)
//	→ smull/smull2 by m0 (exact 64-bit products) → srshl by −rsh
//	(ARM's rounding shift computes (x + 2^(rsh−1)) >> rsh, exactly
//	the pinned round-half-toward-+∞) → sqxtn/sqxtn2 = the int32
//	output saturation → smax (lo−zp) / smin (255−zp) → add zp.
//
// The clamp runs before the zero-point add (against shifted bounds),
// which is equivalent to clamping [lo, 255] after it — see requant.go —
// and keeps every intermediate inside int32. Per channel group of four,
// the parameters live in V16–V21 (m0, corr ×2, −rsh ×2) with the
// zp/lo-derived broadcasts in V28–V30; the chain itself uses V0–V3.
// Bit-identical to the portable reference for every input in the
// contract domain.
//
// The signed widening/saturating instructions are missing from the Go
// 1.24 arm64 assembler, hence the WORD encodings (ARM mnemonic on each;
// operand roles: op vd, vn, vm).

// func requantQ31RowsNEON(dst *uint8, acc *int32, m0, rsh *int32, corr *int64, zp, lo, m, nc4, lda, ldd int)
TEXT ·requantQ31RowsNEON(SB), NOSPLIT, $0-88
	MOVD dst+0(FP), R0
	MOVD acc+8(FP), R1
	MOVD m0+16(FP), R2
	MOVD rsh+24(FP), R3
	MOVD corr+32(FP), R4
	MOVD zp+40(FP), R5
	MOVD lo+48(FP), R6
	MOVD m+56(FP), R7
	MOVD nc4+64(FP), R8
	MOVD lda+72(FP), R9
	LSL  $2, R9, R9           // accumulator row stride in bytes
	MOVD ldd+80(FP), R10
	SUB  R5, R6, R11          // lo − zp
	MOVD $255, R12
	SUB  R5, R12, R12         // 255 − zp
	VDUP R5, V28.S4
	VDUP R11, V29.S4
	VDUP R12, V30.S4
	VEOR V31.B16, V31.B16, V31.B16
	MOVD $0, R13              // g: channel group base

rowsgroup:
	VLD1.P 16(R2), [V16.S4]          // m0[g..g+3]
	VLD1.P 16(R3), [V19.S4]          // rsh[g..g+3]
	VLD1.P 32(R4), [V17.D2, V18.D2]  // corr[g..g+3]
	WORD $0x0F20A674 // sxtl  v20.2d, v19.2s
	WORD $0x4F20A675 // sxtl2 v21.2d, v19.4s
	VSUB V20.D2, V31.D2, V20.D2      // −rsh, low channel pair
	VSUB V21.D2, V31.D2, V21.D2      // −rsh, high channel pair
	ADD  R13<<2, R1, R17             // &acc[g]
	ADD  R13, R0, R19                // &dst[g]
	MOVD R7, R20                     // remaining rows

rowsrow:
	VLD1 (R17), [V0.S4]
	WORD $0x0F20A401 // sxtl  v1.2d, v0.2s
	WORD $0x4F20A402 // sxtl2 v2.2d, v0.4s
	VADD V17.D2, V1.D2, V1.D2
	VADD V18.D2, V2.D2, V2.D2
	WORD $0x0EA14823 // sqxtn  v3.2s, v1.2d
	WORD $0x4EA14843 // sqxtn2 v3.4s, v2.2d
	WORD $0x0EB0C061 // smull  v1.2d, v3.2s, v16.2s
	WORD $0x4EB0C062 // smull2 v2.2d, v3.4s, v16.4s
	WORD $0x4EF45421 // srshl  v1.2d, v1.2d, v20.2d
	WORD $0x4EF55442 // srshl  v2.2d, v2.2d, v21.2d
	WORD $0x0EA14823 // sqxtn  v3.2s, v1.2d
	WORD $0x4EA14843 // sqxtn2 v3.4s, v2.2d
	WORD $0x4EBD6463 // smax   v3.4s, v3.4s, v29.4s
	WORD $0x4EBE6C63 // smin   v3.4s, v3.4s, v30.4s
	VADD V28.S4, V3.S4, V3.S4
	WORD $0x0E612863 // xtn v3.4h, v3.4s
	WORD $0x0E212863 // xtn v3.8b, v3.8h
	VMOV V3.S[0], R21
	MOVW R21, (R19)
	ADD  R9, R17, R17
	ADD  R10, R19, R19
	SUB  $1, R20, R20
	CBNZ R20, rowsrow

	ADD $4, R13, R13
	CMP R8, R13
	BLT rowsgroup
	RET
