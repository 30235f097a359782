//go:build amd64

#include "textflag.h"

// AVX2 batch-norm channel kernels, the bit-for-bit twins of the portable
// kernels in batchnorm.go (which state the contract; register layouts are
// in PERF.md). Each call walks n planes of plane floats, plane i at byte
// offset i·stride·4 from the channel base, in whole groups of eight floats
// and then one partial group of plane%8 floats.
//
// A reduction keeps the contract's eight float64 lanes in two YMM
// registers: lanes 0–3 (the group's first four floats, widened by
// VCVTPS2PD) and lanes 4–7. The partial group is read with VMASKMOVPS,
// which loads +0 into the lanes past the plane; a widened +0 added to a
// lane leaves it unchanged (a lane that starts at +0 is never −0), and a
// product of such a lane is cleared with VANDPD before it is added, so
// each lane sees exactly the terms the portable loop adds to it. Products
// are separate VMULPD/VMULPS instructions, never FMAs. Element-wise
// kernels store the partial group with a masked VMASKMOVPS store, so no
// kernel reads or writes a float outside its planes.

// bnTailMask holds eight set dwords followed by eight clear ones; loading
// 32 bytes at byte offset 32 − 4r yields a VMASKMOVPS mask whose first r
// lanes are set.
DATA bnTailMask<>+0(SB)/8, $0xffffffffffffffff
DATA bnTailMask<>+8(SB)/8, $0xffffffffffffffff
DATA bnTailMask<>+16(SB)/8, $0xffffffffffffffff
DATA bnTailMask<>+24(SB)/8, $0xffffffffffffffff
DATA bnTailMask<>+32(SB)/8, $0x0000000000000000
DATA bnTailMask<>+40(SB)/8, $0x0000000000000000
DATA bnTailMask<>+48(SB)/8, $0x0000000000000000
DATA bnTailMask<>+56(SB)/8, $0x0000000000000000
GLOBL bnTailMask<>(SB), RODATA|NOPTR, $64

// BN_GEOMETRY loads the walk's shape: R10 plane stride in bytes, R11 bytes
// of whole groups per plane, R12 bytes of the partial group (0 when plane
// is a multiple of 8) and Y14 its float mask.
#define BN_GEOMETRY(planeArg, strideArg) \
	MOVQ    strideArg, R10; \
	SHLQ    $2, R10; \
	MOVQ    planeArg, R11; \
	MOVQ    R11, R12; \
	ANDQ    $-8, R11; \
	SHLQ    $2, R11; \
	ANDQ    $7, R12; \
	SHLQ    $2, R12; \
	LEAQ    bnTailMask<>+32(SB), AX; \
	SUBQ    R12, AX; \
	VMOVDQU (AX), Y14

// BN_LANE_MASKS widens the float mask Y14 to float64 lane masks: Y12 for
// lanes 0–3, Y13 for lanes 4–7 (clobbers X13 on the way).
#define BN_LANE_MASKS \
	VPMOVSXDQ    X14, Y12; \
	VEXTRACTI128 $1, Y14, X13; \
	VPMOVSXDQ    X13, Y13

// BN_SUM8 folds the lanes lo (0–3) and hi (4–7) into the low float64 of
// xlo in lanes8.sum's tree: (l0+l4, l1+l5, l2+l6, l3+l7), then
// ((l0+l4)+(l2+l6), (l1+l5)+(l3+l7)), then their sum.
#define BN_SUM8(lo, hi, xlo, xtmp) \
	VADDPD       hi, lo, lo; \
	VEXTRACTF128 $1, lo, xtmp; \
	VADDPD       xtmp, xlo, xlo; \
	VPERMILPD    $1, xlo, xtmp; \
	VADDSD       xtmp, xlo, xlo

// func bnMomentsAVX2(x *float32, n, plane, stride int, cnt float64) (mean, variance float64)
//
// Two passes over the channel: Σx into Y0/Y1, folded and divided by cnt
// for the mean (broadcast into Y15), then Σ(x−mean)² into Y0/Y1 for the
// variance. Registers: SI channel base, DI plane cursor, DX byte offset in
// the plane, CX planes left, Y2/Y3 widened floats.
TEXT ·bnMomentsAVX2(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	BN_GEOMETRY(plane+16(FP), stride+24(FP))
	BN_LANE_MASKS

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, DI
	MOVQ   n+8(FP), CX

sumplane:
	XORQ DX, DX

sumgroup:
	CMPQ      DX, R11
	JGE       sumtail
	VCVTPS2PD (DI)(DX*1), Y2
	VCVTPS2PD 16(DI)(DX*1), Y3
	VADDPD    Y2, Y0, Y0
	VADDPD    Y3, Y1, Y1
	ADDQ      $32, DX
	JMP       sumgroup

sumtail:
	TESTQ        R12, R12
	JZ           sumnext
	VMASKMOVPS   (DI)(DX*1), Y14, Y2
	VCVTPS2PD    X2, Y3
	VEXTRACTF128 $1, Y2, X2
	VCVTPS2PD    X2, Y2
	VADDPD       Y3, Y0, Y0
	VADDPD       Y2, Y1, Y1

sumnext:
	ADDQ R10, DI
	DECQ CX
	JNZ  sumplane

	BN_SUM8(Y0, Y1, X0, X1)
	VDIVSD       cnt+32(FP), X0, X0
	VMOVSD       X0, mean+40(FP)
	VBROADCASTSD X0, Y15

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, DI
	MOVQ   n+8(FP), CX

sqplane:
	XORQ DX, DX

sqgroup:
	CMPQ      DX, R11
	JGE       sqtail
	VCVTPS2PD (DI)(DX*1), Y2
	VCVTPS2PD 16(DI)(DX*1), Y3
	VSUBPD    Y15, Y2, Y2
	VSUBPD    Y15, Y3, Y3
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VADDPD    Y2, Y0, Y0
	VADDPD    Y3, Y1, Y1
	ADDQ      $32, DX
	JMP       sqgroup

sqtail:
	TESTQ        R12, R12
	JZ           sqnext
	VMASKMOVPS   (DI)(DX*1), Y14, Y2
	VCVTPS2PD    X2, Y3
	VEXTRACTF128 $1, Y2, X2
	VCVTPS2PD    X2, Y2
	VSUBPD       Y15, Y3, Y3
	VSUBPD       Y15, Y2, Y2
	VMULPD       Y3, Y3, Y3
	VMULPD       Y2, Y2, Y2
	VANDPD       Y12, Y3, Y3
	VANDPD       Y13, Y2, Y2
	VADDPD       Y3, Y0, Y0
	VADDPD       Y2, Y1, Y1

sqnext:
	ADDQ R10, DI
	DECQ CX
	JNZ  sqplane

	BN_SUM8(Y0, Y1, X0, X1)
	VDIVSD cnt+32(FP), X0, X0
	VMOVSD X0, variance+48(FP)
	VZEROUPPER
	RET

// func bnAffineAVX2(y, x *float32, n, plane, stride int, scale, shift float32)
//
// y = float32(x·scale) + shift, eight floats per step. Registers: DI / SI
// output and input plane cursors, DX byte offset in the plane, CX planes
// left, Y15 scale, Y11 shift, Y2 data.
TEXT ·bnAffineAVX2(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	BN_GEOMETRY(plane+24(FP), stride+32(FP))
	VBROADCASTSS scale+40(FP), Y15
	VBROADCASTSS shift+44(FP), Y11
	MOVQ         n+16(FP), CX

affplane:
	XORQ DX, DX

affgroup:
	CMPQ    DX, R11
	JGE     afftail
	VMULPS  (SI)(DX*1), Y15, Y2
	VADDPS  Y11, Y2, Y2
	VMOVUPS Y2, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     affgroup

afftail:
	TESTQ      R12, R12
	JZ         affnext
	VMASKMOVPS (SI)(DX*1), Y14, Y2
	VMULPS     Y15, Y2, Y2
	VADDPS     Y11, Y2, Y2
	VMASKMOVPS Y2, Y14, (DI)(DX*1)

affnext:
	ADDQ R10, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  affplane
	VZEROUPPER
	RET

// func bnGradSumsAVX2(dy, x *float32, n, plane, stride int, mean float64) (sumDy, sumDyXc float64)
//
// One pass: Σdy into Y0/Y1 and Σdy·(x−mean) into Y2/Y3. Registers: SI / DI
// dy and x plane cursors, DX byte offset in the plane, CX planes left,
// Y15 mean, Y4/Y5 widened dy, Y6/Y7 widened x and then the products,
// Y8/Y9 the partial group's floats.
TEXT ·bnGradSumsAVX2(SB), NOSPLIT, $0-64
	MOVQ dy+0(FP), SI
	MOVQ x+8(FP), DI
	BN_GEOMETRY(plane+24(FP), stride+32(FP))
	BN_LANE_MASKS
	VBROADCASTSD mean+40(FP), Y15
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	MOVQ         n+16(FP), CX

gsplane:
	XORQ DX, DX

gsgroup:
	CMPQ      DX, R11
	JGE       gstail
	VCVTPS2PD (SI)(DX*1), Y4
	VCVTPS2PD 16(SI)(DX*1), Y5
	VCVTPS2PD (DI)(DX*1), Y6
	VCVTPS2PD 16(DI)(DX*1), Y7
	VSUBPD    Y15, Y6, Y6
	VSUBPD    Y15, Y7, Y7
	VMULPD    Y6, Y4, Y6
	VMULPD    Y7, Y5, Y7
	VADDPD    Y4, Y0, Y0
	VADDPD    Y5, Y1, Y1
	VADDPD    Y6, Y2, Y2
	VADDPD    Y7, Y3, Y3
	ADDQ      $32, DX
	JMP       gsgroup

gstail:
	TESTQ        R12, R12
	JZ           gsnext
	VMASKMOVPS   (SI)(DX*1), Y14, Y8
	VMASKMOVPS   (DI)(DX*1), Y14, Y9
	VCVTPS2PD    X8, Y4
	VEXTRACTF128 $1, Y8, X8
	VCVTPS2PD    X8, Y5
	VCVTPS2PD    X9, Y6
	VEXTRACTF128 $1, Y9, X9
	VCVTPS2PD    X9, Y7
	VSUBPD       Y15, Y6, Y6
	VSUBPD       Y15, Y7, Y7
	VMULPD       Y6, Y4, Y6
	VMULPD       Y7, Y5, Y7
	VANDPD       Y12, Y6, Y6
	VANDPD       Y13, Y7, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3

gsnext:
	ADDQ R10, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  gsplane

	BN_SUM8(Y0, Y1, X0, X1)
	VMOVSD X0, sumDy+48(FP)
	BN_SUM8(Y2, Y3, X2, X3)
	VMOVSD X2, sumDyXc+56(FP)
	VZEROUPPER
	RET

// func bnGradInputAVX2(dx, dy, x *float32, n, plane, stride int, mean, mdy, k, a float32)
//
// dx = a·((dy − mdy) − float32((x − mean)·k)), eight floats per step.
// Registers: DI / SI / R8 dx, dy and x plane cursors, DX byte offset in
// the plane, CX planes left, Y8 mean, Y9 mdy, Y10 k, Y11 a, Y2 the x term,
// Y3 the dy term and the result.
TEXT ·bnGradInputAVX2(SB), NOSPLIT, $0-64
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ x+16(FP), R8
	BN_GEOMETRY(plane+32(FP), stride+40(FP))
	VBROADCASTSS mean+48(FP), Y8
	VBROADCASTSS mdy+52(FP), Y9
	VBROADCASTSS k+56(FP), Y10
	VBROADCASTSS a+60(FP), Y11
	MOVQ         n+24(FP), CX

giplane:
	XORQ DX, DX

gigroup:
	CMPQ    DX, R11
	JGE     gitail
	VMOVUPS (R8)(DX*1), Y2
	VSUBPS  Y8, Y2, Y2
	VMULPS  Y10, Y2, Y2
	VMOVUPS (SI)(DX*1), Y3
	VSUBPS  Y9, Y3, Y3
	VSUBPS  Y2, Y3, Y3
	VMULPS  Y11, Y3, Y3
	VMOVUPS Y3, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     gigroup

gitail:
	TESTQ      R12, R12
	JZ         ginext
	VMASKMOVPS (R8)(DX*1), Y14, Y2
	VSUBPS     Y8, Y2, Y2
	VMULPS     Y10, Y2, Y2
	VMASKMOVPS (SI)(DX*1), Y14, Y3
	VSUBPS     Y9, Y3, Y3
	VSUBPS     Y2, Y3, Y3
	VMULPS     Y11, Y3, Y3
	VMASKMOVPS Y3, Y14, (DI)(DX*1)

ginext:
	ADDQ R10, DI
	ADDQ R10, SI
	ADDQ R10, R8
	DECQ CX
	JNZ  giplane
	VZEROUPPER
	RET
