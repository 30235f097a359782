//go:build amd64

#include "textflag.h"

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

// func packedF32GEMM1x16FMA(dst, a, panel *float32, k, aks int)
//
// One-row remainder kernel: 16 accumulators in Y0/Y1, panel rows
// consumed as FMA memory operands, dst[0:16] written once.
TEXT ·packedF32GEMM1x16FMA(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ aks+32(FP), R14
	SHLQ $2, R14
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

kloop:
	VBROADCASTSS (SI), Y10
	VFMADD231PS  (BX), Y10, Y0
	VFMADD231PS  32(BX), Y10, Y1
	ADDQ R14, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  kloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
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

// func packedF32GEMM1x8FMA(dst, a, panel *float32, k, aks int)
//
// One-row narrow-panel remainder kernel: 8 accumulators in Y0, panel
// rows consumed as FMA memory operands, dst[0:8] written once.
TEXT ·packedF32GEMM1x8FMA(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ aks+32(FP), R14
	SHLQ $2, R14
	VXORPS Y0, Y0, Y0

kloop:
	VBROADCASTSS (SI), Y10
	VFMADD231PS  (BX), Y10, Y0
	ADDQ R14, SI
	ADDQ $32, BX
	DECQ CX
	JNZ  kloop

	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func convTapGatherAVX2(dst, src *float32, off, nb, oh, ow, rs, sp, st, pw, kp int)
//
// One (channel, kh, kw) tap of the staged float gather (tapGatherGo is the
// reference walk): for each of nb samples (source stride sp) and oh output
// rows (source stride rs) it copies ow floats at source stride st ∈ {1, 2}
// into consecutive columns off, off+1, … of the tap's patch row, splitting
// the row into one run per column panel it crosses (pw columns, panel
// stride kp); with pw = InW it also moves planes into and out of the
// strip. Runs move in 8-, 4- and 1-float steps. Stride 2 loads 2n
// floats per n-float step and keeps the even ones (VSHUFPS picks them per
// 128-bit lane, VPERMPD restores column order), so it reads one float
// past the last one it uses: the staging strip's one-float margin.
//
// Registers: DI panel-row base, R8 off, R9 pw, R10 kp bytes, SI sample
// cursor, R11 samples left, R13 row cursor, R12 rows left, R14 rs bytes,
// R15 sp bytes, BX floats left in the row, CX run length, DX source and AX
// destination cursors, Y0/Y1 data.
TEXT ·convTapGatherAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ off+16(FP), R8
	MOVQ nb+24(FP), R11
	MOVQ rs+48(FP), R14
	SHLQ $2, R14
	MOVQ sp+56(FP), R15
	SHLQ $2, R15
	MOVQ pw+72(FP), R9
	MOVQ kp+80(FP), R10
	SHLQ $2, R10

sample:
	MOVQ SI, R13
	MOVQ oh+32(FP), R12

row:
	MOVQ R13, DX
	MOVQ ow+40(FP), BX

run:
	MOVQ    R9, CX
	SUBQ    R8, CX            // pw - off
	CMPQ    CX, BX
	CMOVQGT BX, CX            // run = min(pw - off, floats left)
	SUBQ    CX, BX
	LEAQ    (DI)(R8*4), AX
	ADDQ    CX, R8
	CMPQ    st+64(FP), $1
	JNE     s2x8

s1x8:
	CMPQ    CX, $8
	JLT     s1x4
	VMOVUPS (DX), Y0
	VMOVUPS Y0, (AX)
	ADDQ    $32, DX
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     s1x8

s1x4:
	CMPQ    CX, $4
	JLT     s1x1
	VMOVUPS (DX), X0
	VMOVUPS X0, (AX)
	ADDQ    $16, DX
	ADDQ    $16, AX
	SUBQ    $4, CX

s1x1:
	TESTQ  CX, CX
	JZ     rundone
	VMOVSS (DX), X0
	VMOVSS X0, (AX)
	ADDQ   $4, DX
	ADDQ   $4, AX
	DECQ   CX
	JMP    s1x1

s2x8:
	CMPQ    CX, $8
	JLT     s2x4
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VSHUFPS $0x88, Y1, Y0, Y0 // lanes: a0 a2 a8 a10 | a4 a6 a12 a14
	VPERMPD $0xD8, Y0, Y0     // a0 a2 a4 a6 a8 a10 a12 a14
	VMOVUPS Y0, (AX)
	ADDQ    $64, DX
	ADDQ    $32, AX
	SUBQ    $8, CX
	JMP     s2x8

s2x4:
	CMPQ    CX, $4
	JLT     s2x1
	VMOVUPS (DX), X0
	VMOVUPS 16(DX), X1
	VSHUFPS $0x88, X1, X0, X0 // a0 a2 a4 a6
	VMOVUPS X0, (AX)
	ADDQ    $32, DX
	ADDQ    $16, AX
	SUBQ    $4, CX

s2x1:
	TESTQ  CX, CX
	JZ     rundone
	VMOVSS (DX), X0
	VMOVSS X0, (AX)
	ADDQ   $8, DX
	ADDQ   $4, AX
	DECQ   CX
	JMP    s2x1

rundone:
	CMPQ R8, R9
	JNE  rowleft
	XORQ R8, R8               // panel full: next run starts the next panel
	ADDQ R10, DI

rowleft:
	TESTQ BX, BX
	JNZ   run
	ADDQ  R14, R13
	DECQ  R12
	JNZ   row
	ADDQ  R15, SI
	DECQ  R11
	JNZ   sample
	VZEROUPPER
	RET

// func convTapScatterAVX2(dst, src *float32, nb, oh, ow, rs, sp, st int)
//
// The adjoint of convTapGatherAVX2 over a row-major source (tapScatterGo
// is the reference walk): the nb·oh·ow contiguous column-gradient floats
// at src are added, one add each, into the staging strip at the same
// sample / row / stride positions the gather reads. Stride 2 widens four
// source floats into the even lanes of a zero-interleaved YMM
// (VPMOVZXDQ), adds it to eight strip floats and blends the odd lanes
// back from the strip, so each step rewrites the float after the last one
// it updates with its own bits: the same one-float margin as the gather.
//
// Registers: DI sample cursor, R11 samples left, R13 row cursor, R12 rows
// left, R14 rs bytes, R15 sp bytes, R9 ow, R10 st, SI source and AX strip
// cursors, CX floats left in the row, Y0/Y1 data.
TEXT ·convTapScatterAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ nb+16(FP), R11
	MOVQ ow+32(FP), R9
	MOVQ rs+40(FP), R14
	SHLQ $2, R14
	MOVQ sp+48(FP), R15
	SHLQ $2, R15
	MOVQ st+56(FP), R10

sample:
	MOVQ DI, R13
	MOVQ oh+24(FP), R12

row:
	MOVQ R13, AX
	MOVQ R9, CX
	CMPQ R10, $1
	JNE  a2x4

a1x8:
	CMPQ    CX, $8
	JLT     a1x4
	VMOVUPS (AX), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (AX)
	ADDQ    $32, AX
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     a1x8

a1x4:
	CMPQ    CX, $4
	JLT     a1x1
	VMOVUPS (AX), X0
	VADDPS  (SI), X0, X0
	VMOVUPS X0, (AX)
	ADDQ    $16, AX
	ADDQ    $16, SI
	SUBQ    $4, CX

a1x1:
	TESTQ  CX, CX
	JZ     rowdone
	VMOVSS (AX), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (AX)
	ADDQ   $4, AX
	ADDQ   $4, SI
	DECQ   CX
	JMP    a1x1

a2x4:
	CMPQ      CX, $4
	JLT       a2x1
	VMOVUPS   (AX), Y0
	VPMOVZXDQ (SI), Y1          // v0 0 v1 0 v2 0 v3 0
	VADDPS    Y1, Y0, Y1
	VBLENDPS  $0xAA, Y0, Y1, Y1 // odd lanes: the strip's own bits
	VMOVUPS   Y1, (AX)
	ADDQ      $32, AX
	ADDQ      $16, SI
	SUBQ      $4, CX
	JMP       a2x4

a2x1:
	TESTQ  CX, CX
	JZ     rowdone
	VMOVSS (AX), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (AX)
	ADDQ   $8, AX
	ADDQ   $4, SI
	DECQ   CX
	JMP    a2x1

rowdone:
	ADDQ R14, R13
	DECQ R12
	JNZ  row
	ADDQ R15, DI
	DECQ R11
	JNZ  sample
	VZEROUPPER
	RET

// STRIP_TAP4x16 is one tap of the strip-route 4×16 kernels: panel row CX,
// read at ofs[CX] (AX) past the half-bases DX and BX, times the four
// operand rows at R12 (row stride R10, 3·stride R13) into Y0–Y7; R12
// steps to the next tap.
#define STRIP_TAP4x16 \
	MOVLQSX      (AX)(CX*4), R14; \
	VMOVUPS      (DX)(R14*4), Y8; \
	VMOVUPS      (BX)(R14*4), Y9; \
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
	ADDQ         $4, R12

// func convStripGEMM4x16FMA(dst, a, b0, b1 *float32, ofs *int32, m, k, ars, ldd int)
//
// The strip-route forward kernel: packedF32GEMM4x16FMA (aks = 1) with
// panel row q read from the staging strip, its first eight floats at
// b0[ofs[q]] and its last eight at b1[ofs[q]]. Same accumulators and FMA
// per tap, so the bytes are that kernel's over the gathered panel. m must
// be a positive multiple of 4. Registers as there, plus AX ofs, DX / BX
// the two half-bases, CX the tap and R14 its offset.
TEXT ·convStripGEMM4x16FMA(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b0+16(FP), DX
	MOVQ b1+24(FP), BX
	MOVQ ofs+32(FP), AX
	MOVQ m+40(FP), R8
	SHRQ $2, R8
	MOVQ k+48(FP), R9
	MOVQ ars+56(FP), R10
	SHLQ $2, R10
	MOVQ ldd+64(FP), R11
	SHLQ $2, R11
	LEAQ (R10)(R10*2), R13    // 3·ars bytes
	LEAQ (R11)(R11*2), R15    // 3·ldd bytes

sgroup:
	ZERO_4x16
	MOVQ   SI, R12
	XORQ   CX, CX

skloop:
	STRIP_TAP4x16
	INCQ CX
	CMPQ CX, R9
	JLT  skloop

	STORE_4x16
	LEAQ    (SI)(R10*4), SI
	LEAQ    (DI)(R11*4), DI
	DECQ    R8
	JNZ     sgroup
	VZEROUPPER
	RET

// func convStripGEMM1x16FMA(dst, a, b0, b1 *float32, ofs *int32, k int)
//
// One-row remainder of convStripGEMM4x16FMA, after packedF32GEMM1x16FMA.
TEXT ·convStripGEMM1x16FMA(SB), NOSPLIT, $0-48
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b0+16(FP), DX
	MOVQ   b1+24(FP), BX
	MOVQ   ofs+32(FP), AX
	MOVQ   k+40(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

s1kloop:
	MOVLQSX      (AX), R14
	VBROADCASTSS (SI), Y10
	VFMADD231PS  (DX)(R14*4), Y10, Y0
	VFMADD231PS  (BX)(R14*4), Y10, Y1
	ADDQ         $4, SI
	ADDQ         $4, AX
	DECQ         CX
	JNZ          s1kloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func convStripDX4x16FMA(dst, a, b0, b1 *float32, ofs *int32, m, seg, k, ldd int)
//
// The strip-route input-gradient kernel (f32StripDXGo is the reference):
// convStripGEMM4x16FMA's panel rows and accumulators over operand rows of
// k taps, the k walk cut into segments of seg taps. Each segment starts
// from zeroed accumulators and ends added into dst. m must be a positive
// multiple of 4. Registers as there, plus R9 the end of the segment.
TEXT ·convStripDX4x16FMA(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b0+16(FP), DX
	MOVQ b1+24(FP), BX
	MOVQ ofs+32(FP), AX
	MOVQ m+40(FP), R8
	SHRQ $2, R8
	MOVQ k+56(FP), R10
	SHLQ $2, R10              // operand row stride in bytes: k floats
	MOVQ ldd+64(FP), R11
	SHLQ $2, R11
	LEAQ (R10)(R10*2), R13    // 3·k bytes
	LEAQ (R11)(R11*2), R15    // 3·ldd bytes

xgroup:
	MOVQ SI, R12
	XORQ CX, CX
	MOVQ seg+48(FP), R9

xseg:
	ZERO_4x16

xkloop:
	STRIP_TAP4x16
	INCQ CX
	CMPQ CX, R9
	JLT  xkloop
	ADD_4x16
	STORE_4x16
	ADDQ seg+48(FP), R9
	CMPQ CX, k+56(FP)
	JLT  xseg

	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R11*4), DI
	DECQ R8
	JNZ  xgroup
	VZEROUPPER
	RET

// func convStripDWT4FMA(dst, strip *float32, ofs *int32, panel *float32, m, nb, oh, ow, st, rskip, sskip, ldd, pw int)
//
// The strip-route weight-gradient kernel pair: packedF32GEMM4x16FMA
// (pw = 16) and packedF32GEMM4x8FMA (pw = 8) with A's row r read from the
// staging strip at base ofs[r] and tap k walking (sample, output row,
// output column) — ow taps st floats apart, then rskip floats on to the
// next output row, after oh rows sskip floats on to the next sample, for
// nb samples. The accumulators and the FMA per tap are those kernels', so
// the bytes are those of the gathered row-major tile. m must be a positive
// multiple of 4.
//
// Registers: DI dst, SI strip, R8 ofs cursor, R9 groups left, R10–R13
// the four rows' bases, BX panel cursor, AX tap offset bytes, R14 st
// bytes, CX columns left, DX rows left, R15 samples left; Y0–Y7 the
// accumulators (pw = 8: Y0, Y2, Y4, Y6).
TEXT ·convStripDWT4FMA(SB), NOSPLIT, $0-104
	MOVQ dst+0(FP), DI
	MOVQ strip+8(FP), SI
	MOVQ ofs+16(FP), R8
	MOVQ m+32(FP), R9
	SHRQ $2, R9
	MOVQ st+64(FP), R14
	SHLQ $2, R14

dgroup:
	MOVLQSX (R8), R10
	LEAQ    (SI)(R10*4), R10
	MOVLQSX 4(R8), R11
	LEAQ    (SI)(R11*4), R11
	MOVLQSX 8(R8), R12
	LEAQ    (SI)(R12*4), R12
	MOVLQSX 12(R8), R13
	LEAQ    (SI)(R13*4), R13
	ZERO_4x16
	MOVQ    panel+24(FP), BX
	XORQ    AX, AX
	MOVQ    nb+40(FP), R15
	MOVQ    oh+48(FP), DX
	MOVQ    ow+56(FP), CX
	CMPQ    pw+96(FP), $8
	JEQ     nkloop

wkloop:
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
	ADDQ         R14, AX
	ADDQ         $64, BX
	DECQ         CX
	JNZ          wkloop
	MOVQ         rskip+72(FP), CX // row done: on to the next output row
	LEAQ         (AX)(CX*4), AX
	MOVQ         ow+56(FP), CX
	DECQ         DX
	JNZ          wkloop
	MOVQ         sskip+80(FP), DX // sample done: on to the next sample
	LEAQ         (AX)(DX*4), AX
	MOVQ         oh+48(FP), DX
	DECQ         R15
	JNZ          wkloop
	JMP          dstore

nkloop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (R10)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y0
	VBROADCASTSS (R11)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y2
	VBROADCASTSS (R12)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y4
	VBROADCASTSS (R13)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y6
	ADDQ         R14, AX
	ADDQ         $32, BX
	DECQ         CX
	JNZ          nkloop
	MOVQ         rskip+72(FP), CX
	LEAQ         (AX)(CX*4), AX
	MOVQ         ow+56(FP), CX
	DECQ         DX
	JNZ          nkloop
	MOVQ         sskip+80(FP), DX
	LEAQ         (AX)(DX*4), AX
	MOVQ         oh+48(FP), DX
	DECQ         R15
	JNZ          nkloop

dstore:
	MOVQ    ldd+88(FP), CX
	SHLQ    $2, CX
	LEAQ    (CX)(CX*2), DX
	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (DI)(CX*1)
	VMOVUPS Y4, (DI)(CX*2)
	VMOVUPS Y6, (DI)(DX*1)
	CMPQ    pw+96(FP), $8
	JEQ     dnext
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y3, 32(DI)(CX*1)
	VMOVUPS Y5, 32(DI)(CX*2)
	VMOVUPS Y7, 32(DI)(DX*1)

dnext:
	LEAQ (DI)(CX*4), DI
	ADDQ $16, R8
	DECQ R9
	JNZ  dgroup
	VZEROUPPER
	RET
