//go:build amd64

#include "textflag.h"

// AVX2 Q31 requantization (see requant.go for the pinned semantics and
// PERF.md for the register layout). One step requantizes 8 channels of a
// row as 8 int32 lanes:
//
//	clamp acc to [aLo, aHi] (VPMAXSD/VPMINSD) → +c (wrapping VPADDD) →
//	two VPMULDQ by m0 (even, odd lanes) → +2^(rsh−1) → r, or past
//	rsh = 32 the product's high dword, as the low dword after VPSRLVQ
//	by min(rsh, 32) (even lanes) or the high dword after VPSLLVQ by
//	max(0, 32−rsh) (odd lanes) → VPSRAVD by max(0, rsh−32) → +zp →
//	pack with saturation to [0, 255] → VPMAXUB lo
//
// The map is monotone in acc, so it may clamp v = acc+corr to any
// [vLo, vHi] on whose far sides the output already saturates. With
// k = clamp(rsh − e + 11, 1, 31), where e = b or b+1 is the exponent of
// float32(m0) ∈ [2^b, 2^(b+1)), vLo = −2^k and vHi = 2^k − 1 give
// r(vHi) ≥ 512 and r(vLo) ≤ −1024 when k < 31 (k = 31 is the int32
// range), and |r| < 2^31 on the whole range, so both dwords are exact
// for rsh ≤ 32 (and the 64-bit product never overflows for any rsh).
// The clamp moves to the accumulator as
// aLo/aHi = sat32(vLo/vHi − corr), and c = clamp(corr, vLo − aLo,
// vHi − aHi) wrapped to 32 bits makes acc+c land on clamp(sat32(acc +
// corr), vLo, vHi) also when corr puts every accumulator past one edge.
// These per-channel parameters are set up once per channel group per
// call; SIMD and portable bytes are identical over the whole contract.

DATA rq138<>+0(SB)/4, $138
GLOBL rq138<>(SB), RODATA|NOPTR, $4

// rqBoundsV leaves vLo in Y14 and vHi in Y15 for the group at R15 (Y13
// masks the lanes loaded). Clobbers Y3, Y12.
#define rqBoundsV                        \
	VPMASKMOVD (R9)(R15*4), Y13, Y12 \
	VPMASKMOVD (R8)(R15*4), Y13, Y14 \
	VCVTDQ2PS  Y14, Y14              \
	VPSRLD     $23, Y14, Y14         \
	VPBROADCASTD rq138<>(SB), Y15    \
	VPADDD     Y12, Y15, Y15         \
	VPSUBD     Y14, Y15, Y15         \
	VPCMPEQD   Y14, Y14, Y14         \
	VPSRLD     $31, Y14, Y14         \
	VPMAXSD    Y14, Y15, Y15         \
	VPSLLD     $5, Y14, Y3           \
	VPSUBD     Y14, Y3, Y3           \
	VPMINSD    Y3, Y15, Y15          \
	VPSLLVD    Y15, Y14, Y15         \
	VPXOR      Y3, Y3, Y3            \
	VPSUBD     Y15, Y3, Y3           \
	VPSUBD     Y14, Y15, Y15         \
	VMOVDQU    Y3, Y14

// rqHalf turns vLo/vHi (int64 lanes in Y3/Y4) and the corr of 4 channels
// at off past the group into aLo, aHi and c as 4 dwords in X6, X7, X5.
// Clobbers Y3, Y4, Y8, Y9, Y12.
#define rqHalf(off)                          \
	VMOVDQU   off(R10)(R15*8), Y5        \
	VPSUBQ    Y5, Y3, Y6                 \
	VPSUBQ    Y5, Y4, Y7                 \
	VPCMPEQD  Y8, Y8, Y8                 \
	VPSRLQ    $33, Y8, Y9                \
	VPSLLQ    $31, Y8, Y12               \
	VPCMPGTQ  Y9, Y6, Y8                 \
	VPBLENDVB Y8, Y9, Y6, Y6             \
	VPCMPGTQ  Y6, Y12, Y8                \
	VPBLENDVB Y8, Y12, Y6, Y6            \
	VPCMPGTQ  Y9, Y7, Y8                 \
	VPBLENDVB Y8, Y9, Y7, Y7             \
	VPCMPGTQ  Y7, Y12, Y8                \
	VPBLENDVB Y8, Y12, Y7, Y7            \
	VPSUBQ    Y6, Y3, Y3                 \
	VPSUBQ    Y7, Y4, Y4                 \
	VPCMPGTQ  Y5, Y3, Y8                 \
	VPBLENDVB Y8, Y3, Y5, Y5             \
	VPCMPGTQ  Y4, Y5, Y8                 \
	VPBLENDVB Y8, Y4, Y5, Y5             \
	VPSHUFD   $0x88, Y6, Y6              \
	VPERMQ    $0x08, Y6, Y6              \
	VPSHUFD   $0x88, Y7, Y7              \
	VPERMQ    $0x08, Y7, Y7              \
	VPSHUFD   $0x88, Y5, Y5              \
	VPERMQ    $0x08, Y5, Y5

// rqLow sets the clamp of the group's lanes 0–3: aLo, aHi and c in the
// low halves of Y0, Y1, Y2 (Y14/Y15 keep vLo/vHi of all 8 lanes).
#define rqLow                 \
	rqBoundsV             \
	VPMOVSXDQ X14, Y3     \
	VPMOVSXDQ X15, Y4     \
	rqHalf(0)             \
	VMOVDQU   Y6, Y0      \
	VMOVDQU   Y7, Y1      \
	VMOVDQU   Y5, Y2

// rqMul loads the multiply parameters of the group at R15 (Y13 masks
// the lanes): Y3 m0, Y4 m0 of the odd lanes, Y5/Y6 2^(rsh−1) of the
// even/odd lanes, Y7 min(rsh, 32) of the even lanes (a right shift),
// Y8 max(0, 32−rsh) of the odd lanes (a left shift), Y9 max(0, rsh−32).
// Clobbers Y12–Y15.
#define rqMul                            \
	VPMASKMOVD (R8)(R15*4), Y13, Y3  \
	VPMASKMOVD (R9)(R15*4), Y13, Y12 \
	VPSRLQ     $32, Y3, Y4           \
	VPCMPEQD   Y13, Y13, Y13         \
	VPSRLD     $31, Y13, Y14         \
	VPSLLD     $5, Y14, Y15          \
	VPMINSD    Y15, Y12, Y7          \
	VPSUBD     Y15, Y12, Y9          \
	VPSUBD     Y12, Y15, Y15         \
	VPXOR      Y8, Y8, Y8            \
	VPMAXSD    Y8, Y9, Y9            \
	VPMAXSD    Y8, Y15, Y15          \
	VPSRLQ     $32, Y13, Y5          \
	VPAND      Y5, Y7, Y7            \
	VPSRLQ     $32, Y15, Y8          \
	VPSUBD     Y14, Y12, Y12         \
	VPAND      Y5, Y12, Y15          \
	VPSRLQ     $63, Y13, Y14         \
	VPSLLVQ    Y15, Y14, Y5          \
	VPSRLQ     $32, Y12, Y15         \
	VPSLLVQ    Y15, Y14, Y6

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

// func requantQ31RowsAVX2(dst *uint8, acc *int32, m0, rsh *int32, corr *int64, zp, lo, m, nc4, lda, ldd int)
//
// Groups of 8 channels, then a group of 4 through masked loads; each
// group walks every row with Y0 aLo, Y1 aHi, Y2 c, Y10 zp and Y11 lo.
TEXT ·requantQ31RowsAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ m0+16(FP), R8
	MOVQ rsh+24(FP), R9
	MOVQ corr+32(FP), R10
	MOVQ zp+40(FP), AX
	VMOVQ AX, X10
	VPBROADCASTD X10, Y10
	MOVQ lo+48(FP), AX
	VMOVQ AX, X11
	VPBROADCASTB X11, Y11
	MOVQ m+56(FP), R11
	MOVQ nc4+64(FP), R12
	MOVQ lda+72(FP), DX
	SHLQ $2, DX              // row stride in bytes
	MOVQ ldd+80(FP), R14
	XORQ R15, R15            // g: channel group base

group8:
	LEAQ 8(R15), AX
	CMPQ AX, R12
	JGT  group4
	VPCMPEQD Y13, Y13, Y13
	rqLow
	VEXTRACTI128 $1, Y14, X3
	VPMOVSXDQ X3, Y3
	VEXTRACTI128 $1, Y15, X4
	VPMOVSXDQ X4, Y4
	rqHalf(32)
	VINSERTI128 $1, X6, Y0, Y0
	VINSERTI128 $1, X7, Y1, Y1
	VINSERTI128 $1, X5, Y2, Y2
	VPCMPEQD Y13, Y13, Y13
	rqMul
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
	JMP  group8

group4:
	CMPQ R15, R12
	JGE  done
	VPCMPEQD X13, X13, X13   // lanes 0–3
	rqLow
	VPCMPEQD X13, X13, X13
	rqMul
	VPCMPEQD X13, X13, X13
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
