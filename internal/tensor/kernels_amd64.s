//go:build amd64

#include "textflag.h"

// The dW kernels' k walk, defined ahead of every TEXT as it names their
// arguments. DW_START points it at its first tap: BX the panel, AX the
// tap offset 0, R15 / DX / CX the samples, output rows and columns left.
#define DW_START \
	MOVQ panel+24(FP), BX; \
	XORQ AX, AX; \
	MOVQ nb+32(FP), R15; \
	MOVQ oh+40(FP), DX; \
	MOVQ ow+48(FP), CX

// DW_WALK steps the k walk one tap on — AX by st floats (R14 bytes), BX by
// a panel row of size bytes — and loops to tap while the walk lasts: at an
// output row's end AX skips rskip floats more, at a sample's end sskip.
#define DW_WALK(size, tap) \
	ADDQ R14, AX; \
	ADDQ $size, BX; \
	DECQ CX; \
	JNZ  tap; \
	MOVQ rskip+64(FP), CX; \
	LEAQ (AX)(CX*4), AX; \
	MOVQ ow+48(FP), CX; \
	DECQ DX; \
	JNZ  tap; \
	MOVQ sskip+72(FP), DX; \
	LEAQ (AX)(DX*4), AX; \
	MOVQ oh+40(FP), DX; \
	DECQ R15; \
	JNZ  tap

// CPUID/XGETBV helpers for runtime feature detection (kernels_amd64.go).

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ZERO_4x16 clears the 4×16 kernels' accumulators Y0–Y7: row r in
// Y(2r) and Y(2r+1).
#define ZERO_4x16 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7

// STORE_4x16 writes Y0–Y7 to the four dst rows at DI (row stride R11,
// 3·stride R15); ADD_4x16 first adds those rows into them.
#define STORE_4x16 \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, (DI)(R11*1); \
	VMOVUPS Y3, 32(DI)(R11*1); \
	VMOVUPS Y4, (DI)(R11*2); \
	VMOVUPS Y5, 32(DI)(R11*2); \
	VMOVUPS Y6, (DI)(R15*1); \
	VMOVUPS Y7, 32(DI)(R15*1)

#define ADD_4x16 \
	VADDPS (DI), Y0, Y0; \
	VADDPS 32(DI), Y1, Y1; \
	VADDPS (DI)(R11*1), Y2, Y2; \
	VADDPS 32(DI)(R11*1), Y3, Y3; \
	VADDPS (DI)(R11*2), Y4, Y4; \
	VADDPS 32(DI)(R11*2), Y5, Y5; \
	VADDPS (DI)(R15*1), Y6, Y6; \
	VADDPS 32(DI)(R15*1), Y7, Y7

// func packedF32GEMM4x16FMA(dst, a, panel *float32, m, k, ars, aks, ldd int)
//
// Register-blocked 4×16 micro-kernel over a packed column panel (see
// matmul_packed.go for the layout). m must be a positive multiple of 4;
// all strides are in float32 units. Y0–Y7 hold the four rows' two-YMM
// accumulators across the whole k loop, so each packed panel row (two
// 32-byte loads) is multiplied against all four rows and dst is written
// exactly once per tile, never reloaded per k tap. Operand row r, tap q
// is read at a[r·ars + q·aks], which
// serves both the normal (ars=lda, aks=1) and transposed-A (ars=1,
// aks=lda) orientations with the same code.
TEXT ·packedF32GEMM4x16FMA(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8
	SHRQ $2, R8               // four-row groups
	MOVQ k+32(FP), R9
	MOVQ ars+40(FP), R10
	SHLQ $2, R10              // row stride in bytes
	MOVQ aks+48(FP), R14
	SHLQ $2, R14              // k stride in bytes
	MOVQ ldd+56(FP), R11
	SHLQ $2, R11              // dst row stride in bytes
	LEAQ (R10)(R10*2), R13    // 3·ars bytes
	LEAQ (R11)(R11*2), R15    // 3·ldd bytes

grouploop:
	TESTQ  R8, R8
	JZ     done
	ZERO_4x16
	MOVQ   SI, R12            // a cursor (row 0; rows 1–3 via ars offsets)
	MOVQ   DX, BX             // panel cursor
	MOVQ   R9, CX

kloop:
	VMOVUPS      (BX), Y8     // panel row, loaded once per 4 rows
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (R12), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (R12)(R10*1), Y10
	VFMADD231PS  Y8, Y10, Y2
	VFMADD231PS  Y9, Y10, Y3
	VBROADCASTSS (R12)(R10*2), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS (R12)(R13*1), Y10
	VFMADD231PS  Y8, Y10, Y6
	VFMADD231PS  Y9, Y10, Y7
	ADDQ R14, R12
	ADDQ $64, BX
	DECQ CX
	JNZ  kloop

	STORE_4x16
	LEAQ    (SI)(R10*4), SI
	LEAQ    (DI)(R11*4), DI
	DECQ    R8
	JMP     grouploop

done:
	VZEROUPPER
	RET

// func packedF32GEMM4x8FMA(dst, a, panel *float32, m, k, ars, aks, ldd int)
//
// Narrow-panel variant of packedF32GEMM4x16FMA: 8-column panels, one
// YMM accumulator per row (Y0–Y3), each packed panel row loaded once
// and multiplied against all four rows. Same operand addressing and
// accumulation order contract as the 16-wide kernel.
TEXT ·packedF32GEMM4x8FMA(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ m+24(FP), R8
	SHRQ $2, R8               // four-row groups
	MOVQ k+32(FP), R9
	MOVQ ars+40(FP), R10
	SHLQ $2, R10              // row stride in bytes
	MOVQ aks+48(FP), R14
	SHLQ $2, R14              // k stride in bytes
	MOVQ ldd+56(FP), R11
	SHLQ $2, R11              // dst row stride in bytes
	LEAQ (R10)(R10*2), R13    // 3·ars bytes
	LEAQ (R11)(R11*2), R15    // 3·ldd bytes

grouploop:
	TESTQ  R8, R8
	JZ     done
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R12            // a cursor (row 0; rows 1–3 via ars offsets)
	MOVQ   DX, BX             // panel cursor
	MOVQ   R9, CX

kloop:
	VMOVUPS      (BX), Y8     // panel row, loaded once per 4 rows
	VBROADCASTSS (R12), Y10
	VFMADD231PS  Y8, Y10, Y0
	VBROADCASTSS (R12)(R10*1), Y10
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS (R12)(R10*2), Y10
	VFMADD231PS  Y8, Y10, Y2
	VBROADCASTSS (R12)(R13*1), Y10
	VFMADD231PS  Y8, Y10, Y3
	ADDQ R14, R12
	ADDQ $32, BX
	DECQ CX
	JNZ  kloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R11*1)
	VMOVUPS Y2, (DI)(R11*2)
	VMOVUPS Y3, (DI)(R15*1)
	LEAQ    (SI)(R10*4), SI
	LEAQ    (DI)(R11*4), DI
	DECQ    R8
	JMP     grouploop

done:
	VZEROUPPER
	RET

// STRIP_HALVES and STRIP_QUARTERS load panel row CX of the strip-route
// 4×16 kernels into Y8 (columns 0–7) and Y9 (8–15), read at ofs[CX] (AX)
// past the run bases: two 8-float halves at DX and BX, or four 4-float
// quarters at DX, BX, R11 and R15.
#define STRIP_HALVES \
	MOVLQSX (AX)(CX*4), R14; \
	VMOVUPS (DX)(R14*4), Y8; \
	VMOVUPS (BX)(R14*4), Y9

#define STRIP_QUARTERS \
	MOVLQSX     (AX)(CX*4), R14; \
	VMOVUPS     (DX)(R14*4), X8; \
	VINSERTF128 $1, (BX)(R14*4), Y8, Y8; \
	VMOVUPS     (R11)(R14*4), X9; \
	VINSERTF128 $1, (R15)(R14*4), Y9, Y9

// STRIP_TAP4x16 is one tap of the strip-route 4×16 kernels: Y8/Y9 times
// the four operand rows at R12 (row stride R10, 3·stride R13) into Y0–Y7;
// R12 steps on and CX is compared against the loop's end R9.
#define STRIP_TAP4x16 \
	VBROADCASTSS (R12), Y10; \
	VFMADD231PS  Y8, Y10, Y0; \
	VFMADD231PS  Y9, Y10, Y1; \
	VBROADCASTSS (R12)(R10*1), Y10; \
	VFMADD231PS  Y8, Y10, Y2; \
	VFMADD231PS  Y9, Y10, Y3; \
	VBROADCASTSS (R12)(R10*2), Y10; \
	VFMADD231PS  Y8, Y10, Y4; \
	VFMADD231PS  Y9, Y10, Y5; \
	VBROADCASTSS (R12)(R13*1), Y10; \
	VFMADD231PS  Y8, Y10, Y6; \
	VFMADD231PS  Y9, Y10, Y7; \
	ADDQ         $4, R12; \
	INCQ         CX; \
	CMPQ         CX, R9

// STRIP_LDD sets R11 / R15 to the dst row stride ldd in bytes and three
// times it, for STORE_4x16 and ADD_4x16; the quarter loads borrow both.
#define STRIP_LDD(ldd) \
	MOVQ ldd, R11; \
	SHLQ $2, R11; \
	LEAQ (R11)(R11*2), R15

// func convStripGEMM4x16FMA(dst, a, b0, b1, b2, b3 *float32, ofs *int32, m, k, ars, ldd, quarter int)
//
// The strip-route forward kernel: packedF32GEMM4x16FMA (aks = 1) with
// panel row q read from the staging strip at ofs[q] past the run bases:
// halves b0 and b1 (quarter = 0) or quarters b0–b3 (quarter = 1). Same
// accumulators and FMA per tap, so the bytes are that kernel's over the
// gathered panel. m must be a positive multiple of 4. Registers as there,
// plus AX ofs, DX / BX / R11 / R15 the run bases, CX the tap and R14 its
// offset.
TEXT ·convStripGEMM4x16FMA(SB), NOSPLIT, $0-96
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b0+16(FP), DX
	MOVQ b1+24(FP), BX
	MOVQ ofs+48(FP), AX
	MOVQ m+56(FP), R8
	SHRQ $2, R8
	MOVQ k+64(FP), R9
	MOVQ ars+72(FP), R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R13    // 3·ars bytes

sgroup:
	ZERO_4x16
	MOVQ SI, R12
	XORQ CX, CX
	MOVQ b2+32(FP), R11
	MOVQ b3+40(FP), R15
	CMPQ quarter+88(FP), $0
	JNE  sqloop

shloop:
	STRIP_HALVES
	STRIP_TAP4x16
	JLT  shloop
	JMP  sstore

sqloop:
	STRIP_QUARTERS
	STRIP_TAP4x16
	JLT  sqloop

sstore:
	STRIP_LDD(ldd+80(FP))
	STORE_4x16
	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R11*4), DI
	DECQ R8
	JNZ  sgroup
	VZEROUPPER
	RET

// func convStripDX4x16FMA(dst, a, b0, b1, b2, b3 *float32, ofs *int32, m, seg, k, ldd, quarter int)
//
// The strip-route input-gradient kernel (f32StripDXGo is the reference):
// convStripGEMM4x16FMA's panel rows and accumulators over operand rows of
// k taps, the k walk cut into segments of seg taps. Each segment starts
// from zeroed accumulators and ends added into dst. m must be a positive
// multiple of 4. Registers as there, plus R9 the end of the segment.
TEXT ·convStripDX4x16FMA(SB), NOSPLIT, $0-96
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b0+16(FP), DX
	MOVQ b1+24(FP), BX
	MOVQ ofs+48(FP), AX
	MOVQ m+56(FP), R8
	SHRQ $2, R8
	MOVQ k+72(FP), R10
	SHLQ $2, R10              // operand row stride in bytes: k floats
	LEAQ (R10)(R10*2), R13    // 3·k bytes

xgroup:
	MOVQ SI, R12
	XORQ CX, CX
	MOVQ seg+64(FP), R9

xseg:
	ZERO_4x16
	MOVQ b2+32(FP), R11
	MOVQ b3+40(FP), R15
	CMPQ quarter+88(FP), $0
	JNE  xqloop

xhloop:
	STRIP_HALVES
	STRIP_TAP4x16
	JLT  xhloop
	JMP  xsum

xqloop:
	STRIP_QUARTERS
	STRIP_TAP4x16
	JLT  xqloop

xsum:
	STRIP_LDD(ldd+80(FP))
	ADD_4x16
	STORE_4x16
	ADDQ seg+64(FP), R9
	CMPQ CX, k+72(FP)
	JLT  xseg

	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R11*4), DI
	DECQ R8
	JNZ  xgroup
	VZEROUPPER
	RET

// func stageRowsAVX2(dst, src *float32, planes, h, w, sp, rs, e, o, ph int)
//
// stageRowsGo's copy (its reference) for w a multiple of 4·ph, in 8-float
// steps (one of 4 ends a ph = 1 row); at ph = 2 a step's even floats go to
// AX and its odd ones to BX. DI plane base, R10 row base, SI source, R8 /
// R9 planes / rows left, R11–R14 sp / rs / e / o bytes, CX floats left.
TEXT ·stageRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ planes+16(FP), R8
	MOVQ sp+40(FP), R11
	SHLQ $2, R11
	MOVQ rs+48(FP), R12
	SHLQ $2, R12
	MOVQ e+56(FP), R13
	SHLQ $2, R13
	MOVQ o+64(FP), R14
	SHLQ $2, R14

gplane:
	MOVQ DI, R10
	MOVQ h+24(FP), R9

grow:
	LEAQ (R10)(R13*1), AX
	LEAQ (R10)(R14*1), BX
	MOVQ w+32(FP), CX
	CMPQ ph+72(FP), $1
	JNE  g2

g1:
	CMPQ    CX, $8
	JLT     g1x4
	VMOVUPS (SI), Y0
	VMOVUPS Y0, (AX)
	ADDQ    $32, SI
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     g1

g1x4:
	TESTQ   CX, CX
	JZ      gnext
	VMOVUPS (SI), X0
	VMOVUPS X0, (AX)
	ADDQ    $16, SI
	JMP     gnext

g2:
	VMOVUPS (SI), X0
	VMOVUPS 16(SI), X1
	VSHUFPS $0x88, X1, X0, X2 // a0 a2 a4 a6
	VSHUFPS $0xDD, X1, X0, X3 // a1 a3 a5 a7
	VMOVUPS X2, (AX)
	VMOVUPS X3, (BX)
	ADDQ    $32, SI
	ADDQ    $16, AX
	ADDQ    $16, BX
	SUBQ    $8, CX
	JNZ     g2

gnext:
	ADDQ R12, R10
	DECQ R9
	JNZ  grow
	ADDQ R11, DI
	DECQ R8
	JNZ  gplane
	VZEROUPPER
	RET

// func interleaveAVX2(dst, e, o *float32, n, rows, es, ds int)
//
// interleaveGo's rows (its reference): four floats of e and four of o per
// step, VUNPCKLPS / VUNPCKHPS pairing them. n must be a positive multiple
// of 4.
TEXT ·interleaveAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ e+8(FP), SI
	MOVQ o+16(FP), DX
	MOVQ rows+32(FP), R8
	MOVQ es+40(FP), R10
	SHLQ $2, R10
	MOVQ ds+48(FP), R9
	SHLQ $2, R9

irow:
	MOVQ DI, AX
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ n+24(FP), CX

ipair:
	VMOVUPS   (R11), X0
	VMOVUPS   (R12), X1
	VUNPCKLPS X1, X0, X2      // e0 o0 e1 o1
	VUNPCKHPS X1, X0, X3      // e2 o2 e3 o3
	VMOVUPS   X2, (AX)
	VMOVUPS   X3, 16(AX)
	ADDQ      $16, R11
	ADDQ      $16, R12
	ADDQ      $32, AX
	SUBQ      $4, CX
	JNZ       ipair
	ADDQ      R9, DI
	ADDQ      R10, SI
	ADDQ      R10, DX
	DECQ      R8
	JNZ       irow
	RET

// func convStripDW4x16FMA(dst, strip *float32, ofs *int32, panel *float32, nb, oh, ow, st, rskip, sskip, ldd int)
//
// The strip-route weight-gradient kernel for 16-wide panels, four rows:
// packedF32GEMM4x16FMA with A's row r read from the staging strip at base
// ofs[r] and tap k walking (sample, output row, output column) — ow taps
// st floats apart, then rskip floats on to the next output row, after oh
// rows sskip floats on to the next sample, for nb samples. The
// accumulators and the FMA per tap are that kernel's, so the bytes are
// those of the gathered row-major tile.
//
// Registers: R10–R13 the rows' bases, Y0–Y7 the accumulators; the walk as
// DW_START.
TEXT ·convStripDW4x16FMA(SB), NOSPLIT, $0-88
	MOVQ    strip+8(FP), SI
	MOVQ    ofs+16(FP), R8
	MOVQ    st+56(FP), R14
	SHLQ    $2, R14
	MOVLQSX (R8), R10
	LEAQ    (SI)(R10*4), R10
	MOVLQSX 4(R8), R11
	LEAQ    (SI)(R11*4), R11
	MOVLQSX 8(R8), R12
	LEAQ    (SI)(R12*4), R12
	MOVLQSX 12(R8), R13
	LEAQ    (SI)(R13*4), R13
	ZERO_4x16
	DW_START

w16tap:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (R10)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (R11)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y2
	VFMADD231PS  Y9, Y10, Y3
	VBROADCASTSS (R12)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS (R13)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y6
	VFMADD231PS  Y9, Y10, Y7
	DW_WALK(64, w16tap)

	MOVQ    dst+0(FP), DI
	STRIP_LDD(ldd+80(FP))
	STORE_4x16
	VZEROUPPER
	RET

// func convStripDW8x8FMA(dst, strip *float32, ofs *int32, panel *float32, nb, oh, ow, st, rskip, sskip, ldd int)
//
// convStripDW4x16FMA for an 8-wide panel, eight rows: one accumulator a
// row, so eight FMA chains per panel row as there, each the chain
// packedF32GEMM4x8FMA runs for its row — the same bytes.
//
// Registers: R8–R13, DI and SI the rows' bases, Y0–Y7 the accumulators;
// the walk as DW_START.
TEXT ·convStripDW8x8FMA(SB), NOSPLIT, $0-88
	MOVQ    ofs+16(FP), BX
	MOVQ    strip+8(FP), AX
	MOVQ    st+56(FP), R14
	SHLQ    $2, R14
	MOVLQSX (BX), R8
	LEAQ    (AX)(R8*4), R8
	MOVLQSX 4(BX), R9
	LEAQ    (AX)(R9*4), R9
	MOVLQSX 8(BX), R10
	LEAQ    (AX)(R10*4), R10
	MOVLQSX 12(BX), R11
	LEAQ    (AX)(R11*4), R11
	MOVLQSX 16(BX), R12
	LEAQ    (AX)(R12*4), R12
	MOVLQSX 20(BX), R13
	LEAQ    (AX)(R13*4), R13
	MOVLQSX 24(BX), DI
	LEAQ    (AX)(DI*4), DI
	MOVLQSX 28(BX), SI
	LEAQ    (AX)(SI*4), SI
	ZERO_4x16
	DW_START

w8tap:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (R8)(AX*1), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS (R9)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS (R10)(AX*1), Y11
	VFMADD231PS  Y8, Y11, Y2
	VBROADCASTSS (R11)(AX*1), Y12
	VFMADD231PS  Y8, Y12, Y3
	VBROADCASTSS (R12)(AX*1), Y13
	VFMADD231PS  Y8, Y13, Y4
	VBROADCASTSS (R13)(AX*1), Y14
	VFMADD231PS  Y8, Y14, Y5
	VBROADCASTSS (DI)(AX*1), Y15
	VFMADD231PS  Y8, Y15, Y6
	VBROADCASTSS (SI)(AX*1), Y9
	VFMADD231PS  Y8, Y9, Y7
	DW_WALK(32, w8tap)

	MOVQ    dst+0(FP), DI
	STRIP_LDD(ldd+80(FP))
	LEAQ    (DI)(R11*4), SI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R11*1)
	VMOVUPS Y2, (DI)(R11*2)
	VMOVUPS Y3, (DI)(R15*1)
	VMOVUPS Y4, (SI)
	VMOVUPS Y5, (SI)(R11*1)
	VMOVUPS Y6, (SI)(R11*2)
	VMOVUPS Y7, (SI)(R15*1)
	VZEROUPPER
	RET

// T4x8 transposes a 4×8 block — channel rows a–d of 8 positions — in
// place through t0–t3: afterwards a holds positions 0 | 4 of the four
// channels (low | high lane), b 1 | 5, c 2 | 6 and d 3 | 7. T_LOAD4 reads
// four channel rows at p (ld bytes R8, 3·ld R10), T_STORE4 writes four
// dst rows at p (pw bytes R9, 3·pw R11).
#define T4x8(a, b, c, d, t0, t1, t2, t3) \
	VUNPCKLPS b, a, t0; \
	VUNPCKHPS b, a, t1; \
	VUNPCKLPS d, c, t2; \
	VUNPCKHPS d, c, t3; \
	VSHUFPS   $0x44, t2, t0, a; \
	VSHUFPS   $0xEE, t2, t0, b; \
	VSHUFPS   $0x44, t3, t1, c; \
	VSHUFPS   $0xEE, t3, t1, d

#define T_LOAD4(p, a, b, c, d) \
	VMOVUPS (p), a; \
	VMOVUPS (p)(R8*1), b; \
	VMOVUPS (p)(R8*2), c; \
	VMOVUPS (p)(R10*1), d

#define T_STORE4(p, a, b, c, d) \
	VMOVUPS a, (p); \
	VMOVUPS b, (p)(R9*1); \
	VMOVUPS c, (p)(R9*2); \
	VMOVUPS d, (p)(R11*1)

// func transposeAVX2(dst, src *float32, nc, n, ld, pw int)
//
// transposeGo (its reference) in whole blocks: dst[k·pw + r] =
// src[r·ld + k] for r < nc, k < n, channels 8 at a time and then 4,
// positions 8 at a time. nc must be a positive multiple of 4 and n of 8.
//
// Registers: SI / DI the block's first channel row and dst column, AX / DX
// cursors into them, R15 / R14 four rows on; BX channels left, CX
// positions left.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ nc+16(FP), BX
	MOVQ ld+32(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R10
	MOVQ pw+40(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R11

tblock:
	MOVQ SI, AX
	MOVQ DI, DX
	LEAQ (DI)(R9*4), R14
	MOVQ n+24(FP), CX

tstep:
	T_LOAD4(AX, Y0, Y1, Y2, Y3)
	T4x8(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	CMPQ       BX, $8
	JLT        tquad
	LEAQ       (AX)(R8*4), R15
	T_LOAD4(R15, Y4, Y5, Y6, Y7)
	T4x8(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VPERM2F128 $0x20, Y4, Y0, Y8  // position 0: channels 0–3 | 4–7
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12 // position 4
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	T_STORE4(DX, Y8, Y9, Y10, Y11)
	T_STORE4(R14, Y12, Y13, Y14, Y15)
	JMP        tnext

tquad: // four channels: positions 0–3 from the low lanes, 4–7 from the high
	T_STORE4(DX, X0, X1, X2, X3)
	VEXTRACTF128 $1, Y0, (R14)
	VEXTRACTF128 $1, Y1, (R14)(R9*1)
	VEXTRACTF128 $1, Y2, (R14)(R9*2)
	VEXTRACTF128 $1, Y3, (R14)(R11*1)

tnext:
	ADDQ $32, AX
	LEAQ (DX)(R9*8), DX
	LEAQ (R14)(R9*8), R14
	SUBQ $8, CX
	JNZ  tstep
	LEAQ (SI)(R8*8), SI
	ADDQ $32, DI
	SUBQ $8, BX
	JGT  tblock
	VZEROUPPER
	RET
