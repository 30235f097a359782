//go:build amd64

#include "textflag.h"

// Integer GEMM micro-kernels for the packed u8×s8 path (see
// matmul_int_packed.go for the panel layout). Both kernels compute m rows
// of one 8-column panel: for each row, 8 int32 dot products of the uint8
// operand row against the packed int8 panel, k consumed in 4-tap quads.
//
//	dst: *int32, row stride ldd (int32 units), 8 values stored per row
//	a:   *uint8, row stride lda (bytes), each row readable for 4·kq bytes
//	panel: kq · 32 bytes of packed weights
//
// packedGEMMFastAVX2 is the gemmlowp shape: VPMADDUBSW fuses adjacent
// u8·s8 tap pairs into saturating int16, VPMADDWD × ones widens pairs to
// int32, VPADDD accumulates. Exact only when no even k-pair of weights
// can saturate the int16 stage (pack time guarantees |w0|+|w1| ≤ 128
// before routing a matrix here).
//
// packedGEMMWideAVX2 widens both operands to int16 first (VPMOVZXBW /
// VPMOVSXBW) and accumulates VPMADDWD products — exact for any weights
// (|255·w0| + |255·w1| always fits int32). It holds column pair-sums in
// an interleaved order and fixes up with VPHADDD+VPERMQ once per row.
//
// packedGEMMFast4AVX2 / packedGEMMWide4AVX2 are the register-blocked
// multi-row shapes (m must be a positive multiple of 4): four activation
// rows' int32 accumulators stay in YMM registers across the k loop, so
// every packed panel quad is loaded from L1 ONCE and multiplied against
// all four rows — 4× fewer B-panel loads than running the one-row kernel
// four times, which is what bounds the one-row kernels (two load-port
// µops per row-quad against a two-port machine). The remainder rows
// (m mod 4) take the one-row kernels above.

// func packedGEMMFastAVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)
TEXT ·packedGEMMFastAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ kq+32(FP), R9
	MOVQ lda+40(FP), R10
	MOVQ ldd+48(FP), R11
	SHLQ $2, R11              // dst row stride in bytes

	// Y7 = 16 × int16(1) for the VPMADDWD pair-collapse.
	VPCMPEQW Y7, Y7, Y7
	VPSRLW   $15, Y7, Y7

rowloop:
	TESTQ R8, R8
	JZ    done
	VPXOR Y0, Y0, Y0          // even-quad accumulator
	VPXOR Y1, Y1, Y1          // odd-quad accumulator
	MOVQ  SI, R12             // a cursor
	MOVQ  DX, BX              // panel cursor
	MOVQ  R9, CX

pair:                             // two k-quads per iteration
	CMPQ CX, $2
	JLT  quad1
	VPBROADCASTD (R12), Y4    // a[4q..4q+3] replicated to 8 lanes
	VPMADDUBSW   (BX), Y4, Y5 // sat16(a0·b0 + a1·b1), per column ×2
	VPMADDWD     Y7, Y5, Y5   // pair-sum → int32 per column
	VPADDD       Y5, Y0, Y0
	VPBROADCASTD 4(R12), Y4
	VPMADDUBSW   32(BX), Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y1, Y1
	ADDQ $8, R12
	ADDQ $64, BX
	SUBQ $2, CX
	JMP  pair

quad1:
	TESTQ CX, CX
	JZ    rowend
	VPBROADCASTD (R12), Y4
	VPMADDUBSW   (BX), Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y0, Y0

rowend:
	VPADDD  Y1, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    R11, DI
	ADDQ    R10, SI
	DECQ    R8
	JMP     rowloop

done:
	VZEROUPPER
	RET

// func packedGEMMWideAVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)
TEXT ·packedGEMMWideAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ kq+32(FP), R9
	MOVQ lda+40(FP), R10
	MOVQ ldd+48(FP), R11
	SHLQ $2, R11

rowloop:
	TESTQ R8, R8
	JZ    done
	VPXOR Y0, Y0, Y0          // pair-sums, columns 0–3 interleaved
	VPXOR Y1, Y1, Y1          // pair-sums, columns 4–7 interleaved
	MOVQ  SI, R12
	MOVQ  DX, BX
	MOVQ  R9, CX

quad:
	TESTQ CX, CX
	JZ    rowend
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
	JMP  quad

rowend:
	// Fold adjacent pair-sums: VPHADDD leaves [c0 c1 c4 c5 | c2 c3 c6 c7];
	// VPERMQ restores column order.
	VPHADDD Y1, Y0, Y0
	VPERMQ  $0xD8, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    R11, DI
	ADDQ    R10, SI
	DECQ    R8
	JMP     rowloop

done:
	VZEROUPPER
	RET

// func packedGEMMFast4AVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)
//
// Four-row register-blocked VPMADDUBSW kernel; m must be a positive
// multiple of 4. Y0–Y3 hold the four rows' int32 accumulators, Y6 holds
// the panel quad shared by all four rows, Y7 the int16 ones. Same
// saturation precondition as packedGEMMFastAVX2.
TEXT ·packedGEMMFast4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8
	SHRQ $2, R8               // four-row groups
	MOVQ kq+32(FP), R9
	MOVQ lda+40(FP), R10
	MOVQ ldd+48(FP), R11
	SHLQ $2, R11              // dst row stride in bytes
	LEAQ (R10)(R10*2), R13    // 3·lda
	LEAQ (R11)(R11*2), R15    // 3·ldd bytes

	// Y7 = 16 × int16(1) for the VPMADDWD pair-collapse.
	VPCMPEQW Y7, Y7, Y7
	VPSRLW   $15, Y7, Y7

grouploop:
	TESTQ R8, R8
	JZ    done
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  SI, R12             // a cursor (row 0; rows 1–3 via lda offsets)
	MOVQ  DX, BX              // panel cursor
	MOVQ  R9, CX

pair:                             // two k-quads per iteration
	CMPQ CX, $2
	JLT  quad1
	VMOVDQU      (BX), Y6     // even panel quad, loaded once per 4 rows
	VMOVDQU      32(BX), Y12  // odd panel quad
	VPBROADCASTD (R12), Y4
	VPMADDUBSW   Y6, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y0, Y0
	VPBROADCASTD 4(R12), Y4
	VPMADDUBSW   Y12, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y0, Y0
	VPBROADCASTD (R12)(R10*1), Y4
	VPMADDUBSW   Y6, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y1, Y1
	VPBROADCASTD 4(R12)(R10*1), Y4
	VPMADDUBSW   Y12, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y1, Y1
	VPBROADCASTD (R12)(R10*2), Y4
	VPMADDUBSW   Y6, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y2, Y2
	VPBROADCASTD 4(R12)(R10*2), Y4
	VPMADDUBSW   Y12, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y2, Y2
	VPBROADCASTD (R12)(R13*1), Y4
	VPMADDUBSW   Y6, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y3, Y3
	VPBROADCASTD 4(R12)(R13*1), Y4
	VPMADDUBSW   Y12, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y3, Y3
	ADDQ $8, R12
	ADDQ $64, BX
	SUBQ $2, CX
	JMP  pair

quad1:
	TESTQ CX, CX
	JZ    groupend
	VMOVDQU      (BX), Y6
	VPBROADCASTD (R12), Y4
	VPMADDUBSW   Y6, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y0, Y0
	VPBROADCASTD (R12)(R10*1), Y4
	VPMADDUBSW   Y6, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y1, Y1
	VPBROADCASTD (R12)(R10*2), Y4
	VPMADDUBSW   Y6, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y2, Y2
	VPBROADCASTD (R12)(R13*1), Y4
	VPMADDUBSW   Y6, Y4, Y5
	VPMADDWD     Y7, Y5, Y5
	VPADDD       Y5, Y3, Y3

groupend:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, (DI)(R11*1)
	VMOVDQU Y2, (DI)(R11*2)
	VMOVDQU Y3, (DI)(R15*1)
	LEAQ    (SI)(R10*4), SI
	LEAQ    (DI)(R11*4), DI
	DECQ    R8
	JMP     grouploop

done:
	VZEROUPPER
	RET

// func packedGEMMWide4AVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)
//
// Four-row exact widening kernel; m must be a positive multiple of 4.
// Y0–Y7 hold the rows' interleaved column pair-sums (two registers per
// row), Y8/Y9 the sign-extended panel halves shared by all four rows,
// Y10 the zero-extended activation quad, Y11 the product. Exact for any
// weights, like packedGEMMWideAVX2.
TEXT ·packedGEMMWide4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8
	SHRQ $2, R8
	MOVQ kq+32(FP), R9
	MOVQ lda+40(FP), R10
	MOVQ ldd+48(FP), R11
	SHLQ $2, R11
	LEAQ (R10)(R10*2), R13    // 3·lda
	LEAQ (R11)(R11*2), R15    // 3·ldd bytes

grouploop:
	TESTQ R8, R8
	JZ    done
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  SI, R12
	MOVQ  DX, BX
	MOVQ  R9, CX

quad:
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
	JNZ  quad

	// Per row: fold pair-sums and restore column order (see the one-row
	// kernel's rowend comment).
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
	DECQ    R8
	JMP     grouploop

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

// func packedGEMMEdgeAVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd, nr int)
//
// Partial-panel kernel (nr < 8 valid columns): the widening exact
// arithmetic of packedGEMMWideAVX2 — correct for any weights, so one
// kernel serves saturating and non-saturating matrices — with a
// VPMASKMOVD store that writes exactly nr int32 lanes. The panel loads
// stay full-width (panel storage is always padded to 8 columns); only
// the store is masked, because dst may end at column nr.
TEXT ·packedGEMMEdgeAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ kq+32(FP), R9
	MOVQ lda+40(FP), R10
	MOVQ ldd+48(FP), R11
	SHLQ $2, R11              // dst row stride in bytes
	MOVQ nr+56(FP), AX
	MOVQ $8, BX
	SUBQ AX, BX
	SHLQ $2, BX               // (8−nr)·4
	LEAQ edgeMask<>(SB), AX
	VMOVDQU (AX)(BX*1), Y6    // store mask: lanes 0..nr−1 set

rowloop:
	TESTQ R8, R8
	JZ    done
	VPXOR Y0, Y0, Y0          // pair-sums, columns 0–3 interleaved
	VPXOR Y1, Y1, Y1          // pair-sums, columns 4–7 interleaved
	MOVQ  SI, R12
	MOVQ  DX, BX
	MOVQ  R9, CX

quad:
	TESTQ CX, CX
	JZ    rowend
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
	JMP  quad

rowend:
	// Fold adjacent pair-sums and restore column order, then store only
	// the valid columns.
	VPHADDD    Y1, Y0, Y0
	VPERMQ     $0xD8, Y0, Y0
	VPMASKMOVD Y0, Y6, (DI)
	ADDQ       R11, DI
	ADDQ       R10, SI
	DECQ       R8
	JMP        rowloop

done:
	VZEROUPPER
	RET

// func im2colPack3AVX2(dst, r0, r1, r2 *uint8, n, nc, kdim, stride, plane int)
//
// Compose kernel of the staged 3×3 band gather: for each of n output
// positions, composes nc channels' 9-tap patch blocks from three
// staged-row cursors. Each block is three 4-byte row loads merged in an
// XMM register (VPSHUFB compacting the 3×4 loaded bytes down to the 9
// taps) and written with ONE 16-byte store — the 7 trailing bytes are
// zeros spilling past the block; gatherBand3 (conv_implicit.go) documents
// where each spill lands and why a later store always overwrites it.
//
//	dst: position stride kdim bytes, channel stride 9 bytes
//	r0, r1, r2: channel-0 cursors; `stride` bytes per position,
//	            `plane` bytes per channel, 4 bytes readable per load
TEXT ·im2colPack3AVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), R8
	MOVQ r2+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ nc+40(FP), R12
	MOVQ kdim+48(FP), R10
	MOVQ stride+56(FP), R11
	MOVQ plane+64(FP), R13
	VMOVDQU pack3Mask<>(SB), X3

pos:
	MOVQ DI, AX               // block cursor: +9 per channel
	MOVQ SI, R14              // per-channel source cursors: +plane each
	MOVQ R8, R15
	MOVQ R9, BX
	MOVQ R12, DX

chan:
	VMOVD   (R14), X0         // r0[x..x+3] → bytes 0-3
	VPINSRD $1, (R15), X0, X0 // r1[x..x+3] → bytes 4-7
	VPINSRD $2, (BX), X0, X0  // r2[x..x+3] → bytes 8-11
	VPSHUFB X3, X0, X0        // compact to 9 taps + 7 zero bytes
	VMOVDQU X0, (AX)
	ADDQ    R13, R14
	ADDQ    R13, R15
	ADDQ    R13, BX
	ADDQ    $9, AX
	DECQ    DX
	JNZ     chan

	ADDQ R11, SI              // next output position
	ADDQ R11, R8
	ADDQ R11, R9
	ADDQ R10, DI
	DECQ CX
	JNZ  pos
	VZEROUPPER
	RET

// 16-byte VPSHUFB mask: [0 1 2 | 4 5 6 | 8 9 10] then high-bit (zero
// fill) for the 7 spill bytes.
DATA pack3Mask<>+0(SB)/8, $0x0908060504020100
DATA pack3Mask<>+8(SB)/8, $0x808080808080800A
GLOBL pack3Mask<>(SB), RODATA|NOPTR, $16
