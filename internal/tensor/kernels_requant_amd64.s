//go:build amd64

#include "textflag.h"

// AVX2 Q31 requantization kernels (see requant.go for the pinned
// semantics and PERF.md for the register layout). The kernel processes
// channel groups of four: one YMM register holds the group's four int64
// lanes through the whole chain
//
//	widen acc → +corr → saturate to int32 (compare/blend against
//	±2^31) → VPMULDQ by m0 → +2^(rsh−1) → arithmetic shift right by
//	rsh (VPSRLVQ + sign fill through a precomputed himask) → +zp →
//	clamp [lo, 255] → low-byte extract
//
// with the per-channel parameters (m0, corr, rsh, the derived rounding
// constant and himask) hoisted into Y8–Y12 once per group, amortized
// over every row/position the group covers. AVX2 has no 64-bit
// arithmetic variable shift or 64-bit min/max, hence the sign-fill OR
// and the compare/blend clamps; both produce exactly the int64
// semantics of the portable reference, so SIMD and portable bytes are
// identical for every input in the contract domain.

// Constant pool: 4×int64 replicas so compares/adds can use memory
// operands, plus the byte-gather shuffle for the low-byte extract.
DATA rqConsts<>+0(SB)/8, $0x000000007fffffff   // MaxInt32
DATA rqConsts<>+8(SB)/8, $0x000000007fffffff
DATA rqConsts<>+16(SB)/8, $0x000000007fffffff
DATA rqConsts<>+24(SB)/8, $0x000000007fffffff
DATA rqConsts<>+32(SB)/8, $0xffffffff80000000  // MinInt32
DATA rqConsts<>+40(SB)/8, $0xffffffff80000000
DATA rqConsts<>+48(SB)/8, $0xffffffff80000000
DATA rqConsts<>+56(SB)/8, $0xffffffff80000000
DATA rqConsts<>+64(SB)/8, $0x00000000000000ff  // 255
DATA rqConsts<>+72(SB)/8, $0x00000000000000ff
DATA rqConsts<>+80(SB)/8, $0x00000000000000ff
DATA rqConsts<>+88(SB)/8, $0x00000000000000ff
DATA rqConsts<>+96(SB)/8, $0x0000000000000040  // 64 (himask shift base)
DATA rqConsts<>+104(SB)/8, $0x0000000000000040
DATA rqConsts<>+112(SB)/8, $0x0000000000000040
DATA rqConsts<>+120(SB)/8, $0x0000000000000040
DATA rqConsts<>+128(SB)/8, $0x8080808080800800 // VPSHUFB: qword low bytes → b0,b1
DATA rqConsts<>+136(SB)/8, $0x8080808080808080
DATA rqConsts<>+144(SB)/8, $0x8080808080800800
DATA rqConsts<>+152(SB)/8, $0x8080808080808080
GLOBL rqConsts<>(SB), RODATA|NOPTR, $160

// rqGroupSetup loads the parameters of channel group g (GPR R15) into
//
//	Y8  m0 (widened to int64)
//	Y9  corr
//	Y10 rsh
//	Y11 1 << (rsh−1)
//	Y12 himask = ^0 << (64−rsh)
//
// clobbering Y13–Y15.
#define rqGroupSetup                   \
	VPMOVSXDQ (R8)(R15*4), Y8      \
	VMOVDQU   (R10)(R15*8), Y9     \
	VPMOVSXDQ (R9)(R15*4), Y10     \
	VPCMPEQD  Y13, Y13, Y13        \
	VPSRLQ    $63, Y13, Y14        \
	VPSUBQ    Y14, Y10, Y15        \
	VPSLLVQ   Y15, Y14, Y11        \
	VMOVDQU   rqConsts<>+96(SB), Y15 \
	VPSUBQ    Y10, Y15, Y15        \
	VPSLLVQ   Y15, Y13, Y12

// rqChain requantizes the four int32 accumulators at (ptr) through the
// group parameters, leaving the four result bytes in the low dword of
// the named X register. Clobbers Y13–Y15.
#define rqChain(ptr, xout)                          \
	VPMOVSXDQ (ptr), Y13                        \
	VPADDQ    Y9, Y13, Y13                      \
	VPCMPGTQ  rqConsts<>+0(SB), Y13, Y14        \
	VPBLENDVB Y14, rqConsts<>+0(SB), Y13, Y13   \
	VMOVDQU   rqConsts<>+32(SB), Y15            \
	VPCMPGTQ  Y13, Y15, Y14                     \
	VPBLENDVB Y14, Y15, Y13, Y13                \
	VPMULDQ   Y8, Y13, Y13                      \
	VPADDQ    Y11, Y13, Y13                     \
	VPSRLVQ   Y10, Y13, Y14                     \
	VPXOR     Y15, Y15, Y15                     \
	VPCMPGTQ  Y13, Y15, Y15                     \
	VPAND     Y12, Y15, Y15                     \
	VPOR      Y15, Y14, Y13                     \
	VPADDQ    0(SP), Y13, Y13                   \
	VMOVDQU   32(SP), Y15                       \
	VPCMPGTQ  Y13, Y15, Y14                     \
	VPBLENDVB Y14, Y15, Y13, Y13                \
	VPCMPGTQ  rqConsts<>+64(SB), Y13, Y14       \
	VPBLENDVB Y14, rqConsts<>+64(SB), Y13, Y13  \
	VPSHUFB   rqConsts<>+128(SB), Y13, Y13      \
	VEXTRACTI128 $1, Y13, X14                   \
	VPUNPCKLWD X14, X13, xout

// func requantQ31RowsAVX2(dst *uint8, acc *int32, m0, rsh *int32, corr *int64, zp, lo, m, nc4, lda, ldd int)
TEXT ·requantQ31RowsAVX2(SB), NOSPLIT, $64-88
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ m0+16(FP), R8
	MOVQ rsh+24(FP), R9
	MOVQ corr+32(FP), R10
	MOVQ zp+40(FP), AX
	MOVQ AX, 0(SP)
	MOVQ AX, 8(SP)
	MOVQ AX, 16(SP)
	MOVQ AX, 24(SP)
	MOVQ lo+48(FP), AX
	MOVQ AX, 32(SP)
	MOVQ AX, 40(SP)
	MOVQ AX, 48(SP)
	MOVQ AX, 56(SP)
	MOVQ m+56(FP), R11
	MOVQ nc4+64(FP), R12
	MOVQ lda+72(FP), DX
	SHLQ $2, DX              // row stride in bytes
	MOVQ ldd+80(FP), R14
	XORQ R15, R15            // g: channel group base

rowsGroup:
	rqGroupSetup
	LEAQ (SI)(R15*4), AX     // &acc[g]
	LEAQ (DI)(R15*1), BX     // &dst[g]
	MOVQ R11, CX             // remaining rows

rowsRow:
	rqChain(AX, X13)
	VMOVD X13, (BX)
	ADDQ  DX, AX
	ADDQ  R14, BX
	DECQ  CX
	JNZ   rowsRow

	ADDQ $4, R15
	CMPQ R15, R12
	JLT  rowsGroup
	VZEROUPPER
	RET
