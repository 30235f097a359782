//go:build amd64

#include "textflag.h"

// Integer GEMM micro-kernels for the packed u8×s8 path (see
// matmul_int_packed.go for the panel layout and the operand walk). Each
// kernel computes one 8-column panel against the m operand rows of a
// walk: 8 int32 dot products per row, k consumed in 4-tap quads.
//
//	dst:   *int32, row stride ldd (int32 units), 8 values stored per row
//	a:     *uint8; rows come ow at a time, output row r at r·rs bytes,
//	       position x of it x·lda further; each row is nseg runs of
//	       4·segq bytes, sst apart
//	panel: nseg·segq · 32 bytes of packed weights
//
// Both kernels widen the operands to int16 first (VPMOVZXBW /
// VPMOVSXBW) and accumulate VPMADDWD products in int32, which is exact
// for every weight (|255·w0| + |255·w1| always fits). They hold column
// pair-sums in an interleaved order and fix up with VPHADDD+VPERMQ once
// per row. On entry each kernel rewrites its sst argument into the hop
// from one run's end to the next run's start.
//
// packedGEMMAVX2 computes a full panel. Within an output row, groups of
// four positions run register-blocked: four rows' int32 accumulators stay
// in YMM registers across the k loop, so every packed panel quad is
// loaded from L1 ONCE and multiplied against all four rows (4× fewer
// B-panel loads than the one-row body, which the row's last ow mod 4
// positions take). packedGEMMEdgeAVX2 computes the partial last panel.

// func packedGEMMAVX2(dst *int32, a *uint8, panel *int8, m, ow, lda, rs, segq, nseg, sst, ldd int)
//
// Y0–Y7 hold the group's interleaved column pair-sums (two registers per
// row), Y8/Y9 the sign-extended panel halves shared by all four rows,
// Y10 the zero-extended activation quad, Y11 the product.
TEXT ·packedGEMMAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R14         // output-row base
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8         // positions left
	MOVQ lda+40(FP), R10
	LEAQ (R10)(R10*2), R13    // 3·lda
	MOVQ ldd+80(FP), R11
	SHLQ $2, R11              // dst row stride in bytes
	LEAQ (R11)(R11*2), R15    // 3·ldd bytes
	MOVQ segq+56(FP), AX
	SHLQ $2, AX
	SUBQ AX, sst+72(FP)       // sst − 4·segq: run end → next run

row:
	TESTQ R8, R8
	JZ    done
	MOVQ  R14, SI             // position cursor
	MOVQ  ow+32(FP), AX       // positions left in this output row

group:
	CMPQ  AX, $4
	JLT   one
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  SI, R12             // a cursor (row 0; rows 1–3 via lda offsets)
	MOVQ  DX, BX              // panel cursor
	MOVQ  nseg+64(FP), R9

gseg:
	MOVQ segq+56(FP), CX

gquad:
	VPMOVSXBW    (BX), Y8     // panel cols 0–3 as int16, loaded once
	VPMOVSXBW    16(BX), Y9   // panel cols 4–7
	VPBROADCASTD (R12), X10
	VPMOVZXBW    X10, Y10     // row 0 activations widened
	VPMADDWD     Y10, Y8, Y11
	VPADDD       Y11, Y0, Y0
	VPMADDWD     Y10, Y9, Y11
	VPADDD       Y11, Y1, Y1
	VPBROADCASTD (R12)(R10*1), X10
	VPMOVZXBW    X10, Y10
	VPMADDWD     Y10, Y8, Y11
	VPADDD       Y11, Y2, Y2
	VPMADDWD     Y10, Y9, Y11
	VPADDD       Y11, Y3, Y3
	VPBROADCASTD (R12)(R10*2), X10
	VPMOVZXBW    X10, Y10
	VPMADDWD     Y10, Y8, Y11
	VPADDD       Y11, Y4, Y4
	VPMADDWD     Y10, Y9, Y11
	VPADDD       Y11, Y5, Y5
	VPBROADCASTD (R12)(R13*1), X10
	VPMOVZXBW    X10, Y10
	VPMADDWD     Y10, Y8, Y11
	VPADDD       Y11, Y6, Y6
	VPMADDWD     Y10, Y9, Y11
	VPADDD       Y11, Y7, Y7
	ADDQ $4, R12
	ADDQ $32, BX
	DECQ CX
	JNZ  gquad
	ADDQ sst+72(FP), R12
	DECQ R9
	JNZ  gseg

	// Per row: fold pair-sums and restore column order (see the one-row
	// body).
	VPHADDD Y1, Y0, Y0
	VPERMQ  $0xD8, Y0, Y0
	VMOVDQU Y0, (DI)
	VPHADDD Y3, Y2, Y2
	VPERMQ  $0xD8, Y2, Y2
	VMOVDQU Y2, (DI)(R11*1)
	VPHADDD Y5, Y4, Y4
	VPERMQ  $0xD8, Y4, Y4
	VMOVDQU Y4, (DI)(R11*2)
	VPHADDD Y7, Y6, Y6
	VPERMQ  $0xD8, Y6, Y6
	VMOVDQU Y6, (DI)(R15*1)
	LEAQ    (SI)(R10*4), SI
	LEAQ    (DI)(R11*4), DI
	SUBQ    $4, AX
	JMP     group

one:
	TESTQ AX, AX
	JZ    rowend
	VPXOR Y0, Y0, Y0          // pair-sums, columns 0–3 interleaved
	VPXOR Y1, Y1, Y1          // pair-sums, columns 4–7 interleaved
	MOVQ  SI, R12
	MOVQ  DX, BX
	MOVQ  nseg+64(FP), R9

oseg:
	MOVQ segq+56(FP), CX

oquad:
	VPBROADCASTD (R12), X4
	VPMOVZXBW    X4, Y4       // activations widened: [a0..a3] × 4, int16
	VPMOVSXBW    (BX), Y5     // panel low half: cols 0–3, int16
	VPMADDWD     Y4, Y5, Y5   // a0·b0+a1·b1, a2·b2+a3·b3 per column
	VPADDD       Y5, Y0, Y0
	VPMOVSXBW    16(BX), Y5   // panel high half: cols 4–7
	VPMADDWD     Y4, Y5, Y5
	VPADDD       Y5, Y1, Y1
	ADDQ $4, R12
	ADDQ $32, BX
	DECQ CX
	JNZ  oquad
	ADDQ sst+72(FP), R12
	DECQ R9
	JNZ  oseg

	// Fold adjacent pair-sums: VPHADDD leaves [c0 c1 c4 c5 | c2 c3 c6 c7];
	// VPERMQ restores column order.
	VPHADDD Y1, Y0, Y0
	VPERMQ  $0xD8, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    R11, DI
	ADDQ    R10, SI
	DECQ    AX
	JMP     one

rowend:
	ADDQ rs+48(FP), R14
	SUBQ ow+32(FP), R8
	JMP  row

done:
	VZEROUPPER
	RET

// edgeMask holds eight set dwords followed by eight clear ones; loading
// 32 bytes at offset (8−nr)·4 yields a VPMASKMOVD mask whose first nr
// lanes are set.
DATA edgeMask<>+0(SB)/8, $0xffffffffffffffff
DATA edgeMask<>+8(SB)/8, $0xffffffffffffffff
DATA edgeMask<>+16(SB)/8, $0xffffffffffffffff
DATA edgeMask<>+24(SB)/8, $0xffffffffffffffff
DATA edgeMask<>+32(SB)/8, $0x0000000000000000
DATA edgeMask<>+40(SB)/8, $0x0000000000000000
DATA edgeMask<>+48(SB)/8, $0x0000000000000000
DATA edgeMask<>+56(SB)/8, $0x0000000000000000
GLOBL edgeMask<>(SB), RODATA|NOPTR, $64

// func packedGEMMEdgeAVX2(dst *int32, a *uint8, panel *int8, m, ow, lda, rs, segq, nseg, sst, ldd, nr int)
//
// Partial-panel kernel (nr < 8 valid columns): the one-row body of
// packedGEMMAVX2 with a VPMASKMOVD store that writes exactly nr int32
// lanes. The panel loads stay full-width (panel
// storage is always padded to 8 columns); only the store is masked,
// because dst may end at column nr.
TEXT ·packedGEMMEdgeAVX2(SB), NOSPLIT, $0-96
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R14
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ lda+40(FP), R10
	MOVQ ldd+80(FP), R11
	SHLQ $2, R11
	MOVQ segq+56(FP), AX
	SHLQ $2, AX
	SUBQ AX, sst+72(FP)
	MOVQ nr+88(FP), AX
	MOVQ $8, BX
	SUBQ AX, BX
	SHLQ $2, BX               // (8−nr)·4
	LEAQ edgeMask<>(SB), AX
	VMOVDQU (AX)(BX*1), Y6    // store mask: lanes 0..nr−1 set

row:
	TESTQ R8, R8
	JZ    done
	MOVQ  R14, SI
	MOVQ  ow+32(FP), AX

one:
	TESTQ AX, AX
	JZ    rowend
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  SI, R12
	MOVQ  DX, BX
	MOVQ  nseg+64(FP), R9

oseg:
	MOVQ segq+56(FP), CX

oquad:
	VPBROADCASTD (R12), X4
	VPMOVZXBW    X4, Y4
	VPMOVSXBW    (BX), Y5
	VPMADDWD     Y4, Y5, Y5
	VPADDD       Y5, Y0, Y0
	VPMOVSXBW    16(BX), Y5
	VPMADDWD     Y4, Y5, Y5
	VPADDD       Y5, Y1, Y1
	ADDQ $4, R12
	ADDQ $32, BX
	DECQ CX
	JNZ  oquad
	ADDQ sst+72(FP), R12
	DECQ R9
	JNZ  oseg

	VPHADDD    Y1, Y0, Y0
	VPERMQ     $0xD8, Y0, Y0
	VPMASKMOVD Y0, Y6, (DI)
	ADDQ       R11, DI
	ADDQ       R10, SI
	DECQ       AX
	JMP        one

rowend:
	ADDQ rs+48(FP), R14
	SUBQ ow+32(FP), R8
	JMP  row

done:
	VZEROUPPER
	RET
