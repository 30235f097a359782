//go:build arm64

#include "textflag.h"

// NEON integer packed-GEMM micro-kernel for full panels (the partial
// last panel runs the portable kernel). The widening SMLAL form is exact
// for every weight — u8 activations widened to u16 (≤ 255) times s8
// weights widened to s16 (≤ 128 in magnitude) cannot overflow the 32-bit
// accumulator lanes for any realistic k — the same contract as the AVX2
// kernels. Results are bit-identical to the portable kernels (int32
// addition is associative and each product is exact).
//
// Layout recap (matmul_int_packed.go): panel quad q holds the 8
// columns' weights for k taps 4q..4q+3 at byte 4j+t. SXTL widens the 32
// panel bytes to four int16x8 registers, each covering two columns
// (V2 = cols 0,1 | V3 = cols 2,3 | V4 = cols 4,5 | V5 = cols 6,7).
// LD1R replicates a row's 4-byte activation quad to all four S lanes;
// UXTL makes that [a0..a3 a0..a3] as u16×8, which lines up with the
// column-pair layout so SMLAL (low halves) accumulates one column and
// SMLAL2 (high halves) its pair partner. Each accumulator register
// holds four per-tap partial sums of one column, folded with an ADDP
// tree after the k loop.
//
// The operand walk (see matmul_int_packed.go) comes ow positions per
// output row: within a row, positions run in pairs (16 accumulator
// registers) and an odd last position runs the same body with the
// row-1 instructions dropped; each position reads nseg runs of segq
// quads, sst bytes apart (rewritten on entry into the hop from one
// run's end to the next run's start).
//
// The signed widening/multiply instructions are not in the Go 1.24
// arm64 assembler's vocabulary, hence the WORD encodings; each carries
// its ARM mnemonic. Operand roles: smlal vd, vn, vm ⇒ vd += vn·vm.

// func packedGEMMNEON(dst *int32, a *uint8, panel *int8, m, ow, lda, rs, segq, nseg, sst, ldd int)
TEXT ·packedGEMMNEON(SB), NOSPLIT, $0-88
	MOVD dst+0(FP), R0
	MOVD a+8(FP), R1          // output-row base
	MOVD panel+16(FP), R2
	MOVD m+24(FP), R3         // positions left
	MOVD ow+32(FP), R12
	MOVD lda+40(FP), R5
	MOVD rs+48(FP), R13
	MOVD segq+56(FP), R4
	MOVD nseg+64(FP), R14
	MOVD sst+72(FP), R15
	SUB  R4<<2, R15, R15      // run end → next run
	MOVD ldd+80(FP), R6
	LSL  $2, R6, R6           // dst row stride in bytes

row:
	CBZ  R3, done
	MOVD R1, R19              // position cursor
	MOVD R12, R20             // positions left in this output row

pairloop:
	CMP  $2, R20
	BLT  tail
	MOVD R19, R7              // row 0 activation cursor
	ADD  R5, R7, R8           // row 1
	MOVD R2, R9               // panel cursor
	MOVD R14, R21             // runs left
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

pairseg:
	MOVD R4, R10              // quad counter

pairquad:
	VLD1.P 32(R9), [V0.B16, V1.B16]
	WORD $0x0F08A402 // sxtl  v2.8h, v0.8b   (cols 0,1)
	WORD $0x4F08A403 // sxtl2 v3.8h, v0.16b  (cols 2,3)
	WORD $0x0F08A424 // sxtl  v4.8h, v1.8b   (cols 4,5)
	WORD $0x4F08A425 // sxtl2 v5.8h, v1.16b  (cols 6,7)
	VLD1R  (R7), [V6.S4]
	ADD    $4, R7, R7
	VUXTL  V6.B8, V6.H8
	VLD1R  (R8), [V7.S4]
	ADD    $4, R8, R8
	VUXTL  V7.B8, V7.H8
	WORD $0x0E668048 // smlal  v8.4s, v2.4h, v6.4h
	WORD $0x4E668049 // smlal2 v9.4s, v2.8h, v6.8h
	WORD $0x0E66806A // smlal  v10.4s, v3.4h, v6.4h
	WORD $0x4E66806B // smlal2 v11.4s, v3.8h, v6.8h
	WORD $0x0E66808C // smlal  v12.4s, v4.4h, v6.4h
	WORD $0x4E66808D // smlal2 v13.4s, v4.8h, v6.8h
	WORD $0x0E6680AE // smlal  v14.4s, v5.4h, v6.4h
	WORD $0x4E6680AF // smlal2 v15.4s, v5.8h, v6.8h
	WORD $0x0E678050 // smlal  v16.4s, v2.4h, v7.4h
	WORD $0x4E678051 // smlal2 v17.4s, v2.8h, v7.8h
	WORD $0x0E678072 // smlal  v18.4s, v3.4h, v7.4h
	WORD $0x4E678073 // smlal2 v19.4s, v3.8h, v7.8h
	WORD $0x0E678094 // smlal  v20.4s, v4.4h, v7.4h
	WORD $0x4E678095 // smlal2 v21.4s, v4.8h, v7.8h
	WORD $0x0E6780B6 // smlal  v22.4s, v5.4h, v7.4h
	WORD $0x4E6780B7 // smlal2 v23.4s, v5.8h, v7.8h
	SUB  $1, R10, R10
	CBNZ R10, pairquad
	ADD  R15, R7, R7
	ADD  R15, R8, R8
	SUB  $1, R21, R21
	CBNZ R21, pairseg

	// Fold each column's four partial lanes: ADDP(ADDP(c0,c1),
	// ADDP(c2,c3)) yields [c0 c1 c2 c3] in one register.
	VADDP V9.S4, V8.S4, V24.S4
	VADDP V11.S4, V10.S4, V25.S4
	VADDP V25.S4, V24.S4, V24.S4
	VADDP V13.S4, V12.S4, V25.S4
	VADDP V15.S4, V14.S4, V26.S4
	VADDP V26.S4, V25.S4, V25.S4
	VST1  [V24.S4, V25.S4], (R0)
	ADD   R6, R0, R11
	VADDP V17.S4, V16.S4, V24.S4
	VADDP V19.S4, V18.S4, V25.S4
	VADDP V25.S4, V24.S4, V24.S4
	VADDP V21.S4, V20.S4, V25.S4
	VADDP V23.S4, V22.S4, V26.S4
	VADDP V26.S4, V25.S4, V25.S4
	VST1  [V24.S4, V25.S4], (R11)

	ADD R5<<1, R19, R19       // two positions
	ADD R6<<1, R0, R0         // two dst rows
	SUB $2, R20, R20
	B   pairloop

tail:
	CBZ  R20, rowend
	MOVD R19, R7
	MOVD R2, R9
	MOVD R14, R21
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16

tailseg:
	MOVD R4, R10

tailquad:
	VLD1.P 32(R9), [V0.B16, V1.B16]
	WORD $0x0F08A402 // sxtl  v2.8h, v0.8b
	WORD $0x4F08A403 // sxtl2 v3.8h, v0.16b
	WORD $0x0F08A424 // sxtl  v4.8h, v1.8b
	WORD $0x4F08A425 // sxtl2 v5.8h, v1.16b
	VLD1R  (R7), [V6.S4]
	ADD    $4, R7, R7
	VUXTL  V6.B8, V6.H8
	WORD $0x0E668048 // smlal  v8.4s, v2.4h, v6.4h
	WORD $0x4E668049 // smlal2 v9.4s, v2.8h, v6.8h
	WORD $0x0E66806A // smlal  v10.4s, v3.4h, v6.4h
	WORD $0x4E66806B // smlal2 v11.4s, v3.8h, v6.8h
	WORD $0x0E66808C // smlal  v12.4s, v4.4h, v6.4h
	WORD $0x4E66808D // smlal2 v13.4s, v4.8h, v6.8h
	WORD $0x0E6680AE // smlal  v14.4s, v5.4h, v6.4h
	WORD $0x4E6680AF // smlal2 v15.4s, v5.8h, v6.8h
	SUB  $1, R10, R10
	CBNZ R10, tailquad
	ADD  R15, R7, R7
	SUB  $1, R21, R21
	CBNZ R21, tailseg

	VADDP V9.S4, V8.S4, V24.S4
	VADDP V11.S4, V10.S4, V25.S4
	VADDP V25.S4, V24.S4, V24.S4
	VADDP V13.S4, V12.S4, V25.S4
	VADDP V15.S4, V14.S4, V26.S4
	VADDP V26.S4, V25.S4, V25.S4
	VST1  [V24.S4, V25.S4], (R0)

	ADD R5, R19, R19
	ADD R6, R0, R0
	SUB $1, R20, R20
	B   tail

rowend:
	ADD R13, R1, R1
	SUB R12, R3, R3
	B   row

done:
	RET
