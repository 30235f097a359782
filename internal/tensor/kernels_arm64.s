//go:build arm64

#include "textflag.h"

// NEON packed-panel float micro-kernels, the arm64 counterparts of the
// AVX2 kernels in kernels_amd64.s. Same contracts: one accumulator per
// output element held in registers across the whole k loop, k ascending,
// operand row r tap q read at a[r·ars + q·aks], dst written exactly
// once per tile. FMLA fuses each multiply-add into one rounding, so —
// exactly like the amd64 FMA kernels — results agree with the portable
// kernels to float32 rounding, not bitwise.
//
// The activation broadcast is LD1R (load one float replicated to four
// lanes); the packed panel rows are contiguous, consumed with
// post-incremented LD1 multi-register loads.

// func packedF32GEMM4x16NEON(dst, a, panel *float32, m, k, ars, aks, ldd int)
//
// 4 rows × 16 columns: sixteen V-register accumulators (V8–V23, four
// per row), each panel row (64 bytes, V0–V3) loaded once per four rows.
// m must be a positive multiple of 4.
TEXT ·packedF32GEMM4x16NEON(SB), NOSPLIT, $0-64
	MOVD dst+0(FP), R0
	MOVD a+8(FP), R1
	MOVD panel+16(FP), R2
	MOVD m+24(FP), R3
	LSR  $2, R3, R3          // four-row groups
	MOVD k+32(FP), R4
	MOVD ars+40(FP), R5
	LSL  $2, R5, R5          // row stride in bytes
	MOVD aks+48(FP), R6
	LSL  $2, R6, R6          // k stride in bytes
	MOVD ldd+56(FP), R7
	LSL  $2, R7, R7          // dst row stride in bytes

grouploop:
	CBZ  R3, done
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
	VEOR V18.B16, V18.B16, V18.B16
	VEOR V19.B16, V19.B16, V19.B16
	VEOR V20.B16, V20.B16, V20.B16
	VEOR V21.B16, V21.B16, V21.B16
	VEOR V22.B16, V22.B16, V22.B16
	VEOR V23.B16, V23.B16, V23.B16
	MOVD R1, R8              // row 0 cursor
	ADD  R5, R8, R9          // row 1
	ADD  R5, R9, R10         // row 2
	ADD  R5, R10, R11        // row 3
	MOVD R2, R12             // panel cursor
	MOVD R4, R13             // k counter

kloop:
	VLD1.P 64(R12), [V0.S4, V1.S4, V2.S4, V3.S4]
	VLD1R  (R8), [V4.S4]
	ADD    R6, R8, R8
	VFMLA  V0.S4, V4.S4, V8.S4
	VFMLA  V1.S4, V4.S4, V9.S4
	VFMLA  V2.S4, V4.S4, V10.S4
	VFMLA  V3.S4, V4.S4, V11.S4
	VLD1R  (R9), [V5.S4]
	ADD    R6, R9, R9
	VFMLA  V0.S4, V5.S4, V12.S4
	VFMLA  V1.S4, V5.S4, V13.S4
	VFMLA  V2.S4, V5.S4, V14.S4
	VFMLA  V3.S4, V5.S4, V15.S4
	VLD1R  (R10), [V6.S4]
	ADD    R6, R10, R10
	VFMLA  V0.S4, V6.S4, V16.S4
	VFMLA  V1.S4, V6.S4, V17.S4
	VFMLA  V2.S4, V6.S4, V18.S4
	VFMLA  V3.S4, V6.S4, V19.S4
	VLD1R  (R11), [V7.S4]
	ADD    R6, R11, R11
	VFMLA  V0.S4, V7.S4, V20.S4
	VFMLA  V1.S4, V7.S4, V21.S4
	VFMLA  V2.S4, V7.S4, V22.S4
	VFMLA  V3.S4, V7.S4, V23.S4
	SUB    $1, R13, R13
	CBNZ   R13, kloop

	MOVD R0, R14
	VST1 [V8.S4, V9.S4, V10.S4, V11.S4], (R14)
	ADD  R7, R14, R14
	VST1 [V12.S4, V13.S4, V14.S4, V15.S4], (R14)
	ADD  R7, R14, R14
	VST1 [V16.S4, V17.S4, V18.S4, V19.S4], (R14)
	ADD  R7, R14, R14
	VST1 [V20.S4, V21.S4, V22.S4, V23.S4], (R14)
	ADD  R5<<2, R1, R1
	ADD  R7<<2, R0, R0
	SUB  $1, R3, R3
	B    grouploop

done:
	RET

// func packedF32GEMM4x8NEON(dst, a, panel *float32, m, k, ars, aks, ldd int)
//
// Narrow-panel 4×8 kernel: two accumulators per row (V8–V15), 32-byte
// panel rows. m must be a positive multiple of 4.
TEXT ·packedF32GEMM4x8NEON(SB), NOSPLIT, $0-64
	MOVD dst+0(FP), R0
	MOVD a+8(FP), R1
	MOVD panel+16(FP), R2
	MOVD m+24(FP), R3
	LSR  $2, R3, R3
	MOVD k+32(FP), R4
	MOVD ars+40(FP), R5
	LSL  $2, R5, R5
	MOVD aks+48(FP), R6
	LSL  $2, R6, R6
	MOVD ldd+56(FP), R7
	LSL  $2, R7, R7

grouploop:
	CBZ  R3, done
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16
	MOVD R1, R8
	ADD  R5, R8, R9
	ADD  R5, R9, R10
	ADD  R5, R10, R11
	MOVD R2, R12
	MOVD R4, R13

kloop:
	VLD1.P 32(R12), [V0.S4, V1.S4]
	VLD1R  (R8), [V4.S4]
	ADD    R6, R8, R8
	VFMLA  V0.S4, V4.S4, V8.S4
	VFMLA  V1.S4, V4.S4, V9.S4
	VLD1R  (R9), [V5.S4]
	ADD    R6, R9, R9
	VFMLA  V0.S4, V5.S4, V10.S4
	VFMLA  V1.S4, V5.S4, V11.S4
	VLD1R  (R10), [V6.S4]
	ADD    R6, R10, R10
	VFMLA  V0.S4, V6.S4, V12.S4
	VFMLA  V1.S4, V6.S4, V13.S4
	VLD1R  (R11), [V7.S4]
	ADD    R6, R11, R11
	VFMLA  V0.S4, V7.S4, V14.S4
	VFMLA  V1.S4, V7.S4, V15.S4
	SUB    $1, R13, R13
	CBNZ   R13, kloop

	MOVD R0, R14
	VST1 [V8.S4, V9.S4], (R14)
	ADD  R7, R14, R14
	VST1 [V10.S4, V11.S4], (R14)
	ADD  R7, R14, R14
	VST1 [V12.S4, V13.S4], (R14)
	ADD  R7, R14, R14
	VST1 [V14.S4, V15.S4], (R14)
	ADD  R5<<2, R1, R1
	ADD  R7<<2, R0, R0
	SUB  $1, R3, R3
	B    grouploop

done:
	RET
