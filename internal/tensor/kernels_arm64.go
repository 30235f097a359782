//go:build arm64

package tensor

import "os"

// NEON dispatch for arm64. Advanced SIMD is baseline on AArch64, so there
// is no feature probe: the NEON kernels from kernels_arm64.s,
// kernels_int_arm64.s and kernels_requant_arm64.s are installed
// unconditionally unless APT_NOSIMD is set (or SetSIMD(false) is called),
// in which case the portable Go kernels — the cross-arch reference —
// stay in place.
//
// Deliberately left portable on arm64: the nr<8 integer edge kernel
// (packedAsmEdge stays nil; the portable edge loop handles partial
// panels, which only ever cover the last few columns of a layer), the
// float conv's strip kernels (f32StripPanel and its siblings keep their
// portable twins) and the batch-norm channel kernels (bnMomentsAsm and its
// three siblings stay nil; the portable lane loops in batchnorm.go run).

//go:noescape
func packedGEMMNEON(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)

//go:noescape
func packedF32GEMM4x16NEON(dst, a, panel *float32, m, k, ars, aks, ldd int)

//go:noescape
func packedF32GEMM1x16NEON(dst, a, panel *float32, k, aks int)

//go:noescape
func packedF32GEMM4x8NEON(dst, a, panel *float32, m, k, ars, aks, ldd int)

//go:noescape
func packedF32GEMM1x8NEON(dst, a, panel *float32, k, aks int)

//go:noescape
func requantQ31RowsNEON(dst *uint8, acc *int32, m0, rsh *int32, corr *int64, zp, lo, m, nc4, lda, ldd int)

//go:noescape
func requantQ31TransNEON(dst *uint8, acc *int32, m0, rsh *int32, corr *int64, zp, lo, np8, nc4, lda, ldd int)

func init() {
	simdFeatures = "neon"
	simdApply = applySIMDArm64
	simdApply(os.Getenv("APT_NOSIMD") == "")
}

// applySIMDArm64 mirrors applySIMDAmd64: it points every kernel dispatch
// variable at the NEON assembly or the portable implementation, backing
// SetSIMD so both paths stay testable on one machine.
func applySIMDArm64(on bool) {
	simdOn = on
	if !on {
		packedAsmFast, packedAsmWide = nil, nil
		packedAsmFast4, packedAsmWide4 = nil, nil
		f32Panel4, f32Panel1 = f32Panel4Go, f32Panel1Go
		f32Panel4w8, f32Panel1w8 = f32Panel4x8Go, f32Panel1x8Go
		requantRowsAsm, requantTransAsm = nil, nil
		return
	}
	// One integer routine serves all four slots: the widening SMLAL
	// kernel is exact for any weights, so the fast/wide (saturation
	// hazard) split that AVX2's VPMADDUBSW forces does not exist here.
	packedAsmFast = packedNEONAsm
	packedAsmWide = packedNEONAsm
	packedAsmFast4 = packedNEONAsm
	packedAsmWide4 = packedNEONAsm
	f32Panel4 = f32Panel4NEONWrap
	f32Panel1 = f32Panel1NEONWrap
	f32Panel4w8 = f32Panel4w8NEONWrap
	f32Panel1w8 = f32Panel1w8NEONWrap
	requantRowsAsm = requantRowsNEONWrap
	requantTransAsm = requantTransNEONWrap
}

func packedNEONAsm(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int) {
	// Bounds asserted by MatMulU8I8PackedInto; the kernel reads 4·kq bytes
	// per operand row and writes 8 int32 per dst row.
	_ = a[(m-1)*lda+4*kq-1]
	_ = dst[(m-1)*ldd+7]
	_ = panel[kq*32-1]
	packedGEMMNEON(&dst[0], &a[0], &panel[0], m, kq, lda, ldd)
}

func f32Panel4NEONWrap(dst, a, panel []float32, m, k, ars, aks, ldd int) {
	// m is a positive multiple of 4; each row reads k strided taps of a
	// and writes 16 consecutive dst floats.
	_ = a[(m-1)*ars+(k-1)*aks]
	_ = dst[(m-1)*ldd+15]
	_ = panel[k*16-1]
	packedF32GEMM4x16NEON(&dst[0], &a[0], &panel[0], m, k, ars, aks, ldd)
}

func f32Panel1NEONWrap(dst, a, panel []float32, k, aks int) {
	_ = a[(k-1)*aks]
	_ = dst[15]
	_ = panel[k*16-1]
	packedF32GEMM1x16NEON(&dst[0], &a[0], &panel[0], k, aks)
}

func f32Panel4w8NEONWrap(dst, a, panel []float32, m, k, ars, aks, ldd int) {
	_ = a[(m-1)*ars+(k-1)*aks]
	_ = dst[(m-1)*ldd+7]
	_ = panel[k*8-1]
	packedF32GEMM4x8NEON(&dst[0], &a[0], &panel[0], m, k, ars, aks, ldd)
}

func f32Panel1w8NEONWrap(dst, a, panel []float32, k, aks int) {
	_ = a[(k-1)*aks]
	_ = dst[7]
	_ = panel[k*8-1]
	packedF32GEMM1x8NEON(&dst[0], &a[0], &panel[0], k, aks)
}

func requantRowsNEONWrap(dst []uint8, acc []int32, m0, rsh []int32, corr []int64, zp, lo int32, m, nc4, lda, ldd int) {
	// Bounds asserted by RequantQ31Rows; re-pin the extremes the kernel
	// touches (last row's last group and every per-channel parameter).
	_ = acc[(m-1)*lda+nc4-1]
	_ = dst[(m-1)*ldd+nc4-1]
	_ = m0[nc4-1]
	_ = rsh[nc4-1]
	_ = corr[nc4-1]
	requantQ31RowsNEON(&dst[0], &acc[0], &m0[0], &rsh[0], &corr[0], int(zp), int(lo), m, nc4, lda, ldd)
}

func requantTransNEONWrap(dst []uint8, acc []int32, m0, rsh []int32, corr []int64, zp, lo int32, np8, nc4, lda, ldd int) {
	_ = acc[(np8-1)*lda+nc4-1]
	_ = dst[(nc4-1)*ldd+np8-1]
	_ = m0[nc4-1]
	_ = rsh[nc4-1]
	_ = corr[nc4-1]
	requantQ31TransNEON(&dst[0], &acc[0], &m0[0], &rsh[0], &corr[0], int(zp), int(lo), np8, nc4, lda, ldd)
}
