//go:build amd64

package tensor

import "os"

// Runtime CPU dispatch for the amd64 SIMD kernels. The float assembly in
// kernels_amd64.s needs AVX2 and FMA3; the integer panel kernels in
// kernels_int_amd64.s need AVX2. Both are checked via CPUID along with OS
// support for saving YMM state (OSXSAVE + XCR0), following the standard
// detection sequence. When any check fails — or APT_NOSIMD is set in the
// environment — the portable Go kernels stay in place.

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func axpy4fma(dst, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy1fma(dst, b *float32, n int, a float32)

//go:noescape
func dotfma(a, b *float32, n int) float32

//go:noescape
func packedGEMMFastAVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)

//go:noescape
func packedGEMMWideAVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)

//go:noescape
func packedGEMMFast4AVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)

//go:noescape
func packedGEMMWide4AVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd int)

//go:noescape
func packedGEMMEdgeAVX2(dst *int32, a *uint8, panel *int8, m, kq, lda, ldd, nr int)

//go:noescape
func im2colPack3AVX2(dst, r0, r1, r2 *uint8, n, nc, kdim, stride, plane int)

//go:noescape
func packedF32GEMM4x16FMA(dst, a, panel *float32, m, k, ars, aks, ldd int)

//go:noescape
func packedF32GEMM1x16FMA(dst, a, panel *float32, k, aks int)

//go:noescape
func packedF32GEMM4x8FMA(dst, a, panel *float32, m, k, ars, aks, ldd int)

//go:noescape
func packedF32GEMM1x8FMA(dst, a, panel *float32, k, aks int)

//go:noescape
func convTapGatherAVX2(dst, src *float32, off, nb, oh, ow, rs, sp, st, pw, kp int)

//go:noescape
func convTapScatterAVX2(dst, src *float32, nb, oh, ow, rs, sp, st int)

//go:noescape
func requantQ31RowsAVX2(dst *uint8, acc *int32, m0, rsh *int32, corr *int64, zp, lo, m, nc4, lda, ldd int)

//go:noescape
func requantQ31TransAVX2(dst *uint8, acc *int32, m0, rsh *int32, corr *int64, zp, lo, np8, nc4, lda, ldd int)

// hasFMA reports whether AVX2+FMA kernels are usable on this CPU/OS.
var hasFMA = detectFMA()

func detectFMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// OS must save XMM (bit 1) and YMM (bit 2) state.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func init() {
	if !hasFMA {
		return
	}
	simdFeatures = "avx2,fma"
	simdApply = applySIMDAmd64
	simdApply(os.Getenv("APT_NOSIMD") == "")
}

// applySIMDAmd64 points every kernel dispatch variable at the assembly or
// the portable implementation. It backs SetSIMD, so both paths stay
// testable on one machine.
func applySIMDAmd64(on bool) {
	simdOn = on
	if !on {
		axpy4, axpy1, dot = axpy4Go, axpy1Go, dotGo
		packedAsmFast, packedAsmWide = nil, nil
		packedAsmFast4, packedAsmWide4 = nil, nil
		packedAsmEdge = nil
		pack3Asm = nil
		tapGatherAsm, tapScatterAsm = nil, nil
		f32Panel4, f32Panel1 = f32Panel4Go, f32Panel1Go
		f32Panel4w8, f32Panel1w8 = f32Panel4x8Go, f32Panel1x8Go
		requantRowsAsm, requantTransAsm = nil, nil
		return
	}
	axpy4 = axpy4Asm
	axpy1 = axpy1Asm
	dot = dotAsm
	packedAsmFast = packedFastAsm
	packedAsmWide = packedWideAsm
	packedAsmFast4 = packedFast4Asm
	packedAsmWide4 = packedWide4Asm
	packedAsmEdge = packedEdgeAsm
	pack3Asm = pack3AVX2Wrap
	tapGatherAsm = tapGatherAVX2Wrap
	tapScatterAsm = tapScatterAVX2Wrap
	f32Panel4 = f32Panel4Asm
	f32Panel1 = f32Panel1Asm
	f32Panel4w8 = f32Panel4w8Asm
	f32Panel1w8 = f32Panel1w8Asm
	requantRowsAsm = requantRowsAVX2Wrap
	requantTransAsm = requantTransAVX2Wrap
}

func pack3AVX2Wrap(dst, r0, r1, r2 []uint8, n, nc, kdim, stride, plane int) {
	// Pin the extreme bytes the kernel touches: the last block's 16-byte
	// store and each cursor's final 4-byte load.
	_ = dst[(n-1)*kdim+(nc-1)*9+15]
	e := (nc-1)*plane + (n-1)*stride
	_ = r0[e+3]
	_ = r1[e+3]
	_ = r2[e+3]
	im2colPack3AVX2(&dst[0], &r0[0], &r1[0], &r2[0], n, nc, kdim, stride, plane)
}

func tapGatherAVX2Wrap(dst, src []float32, off, nb, oh, ow, rs, sp, st, pw, kp int) {
	// Pin the last column the walk writes and the last float it reads,
	// the stride-2 margin float included.
	jl := off + nb*oh*ow - 1
	_ = dst[(jl/pw)*kp+jl%pw]
	_ = src[(nb-1)*sp+(oh-1)*rs+(ow-1)*st+st-1]
	convTapGatherAVX2(&dst[0], &src[0], off, nb, oh, ow, rs, sp, st, pw, kp)
}

func tapScatterAVX2Wrap(dst, src []float32, nb, oh, ow, rs, sp, st int) {
	_ = src[nb*oh*ow-1]
	_ = dst[(nb-1)*sp+(oh-1)*rs+(ow-1)*st+st-1]
	convTapScatterAVX2(&dst[0], &src[0], nb, oh, ow, rs, sp, st)
}

func requantRowsAVX2Wrap(dst []uint8, acc []int32, m0, rsh []int32, corr []int64, zp, lo int32, m, nc4, lda, ldd int) {
	// Bounds asserted by RequantQ31Rows; re-pin the extremes the kernel
	// touches (last row's last group and every per-channel parameter).
	_ = acc[(m-1)*lda+nc4-1]
	_ = dst[(m-1)*ldd+nc4-1]
	_ = m0[nc4-1]
	_ = rsh[nc4-1]
	_ = corr[nc4-1]
	requantQ31RowsAVX2(&dst[0], &acc[0], &m0[0], &rsh[0], &corr[0], int(zp), int(lo), m, nc4, lda, ldd)
}

func requantTransAVX2Wrap(dst []uint8, acc []int32, m0, rsh []int32, corr []int64, zp, lo int32, np8, nc4, lda, ldd int) {
	_ = acc[(np8-1)*lda+nc4-1]
	_ = dst[(nc4-1)*ldd+np8-1]
	_ = m0[nc4-1]
	_ = rsh[nc4-1]
	_ = corr[nc4-1]
	requantQ31TransAVX2(&dst[0], &acc[0], &m0[0], &rsh[0], &corr[0], int(zp), int(lo), np8, nc4, lda, ldd)
}

func axpy4Asm(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	if n == 0 {
		return
	}
	_ = b0[n-1]
	_ = b1[n-1]
	_ = b2[n-1]
	_ = b3[n-1]
	axpy4fma(&dst[0], &b0[0], &b1[0], &b2[0], &b3[0], n, a0, a1, a2, a3)
}

func axpy1Asm(dst, b []float32, a float32) {
	n := len(dst)
	if n == 0 {
		return
	}
	_ = b[n-1]
	axpy1fma(&dst[0], &b[0], n, a)
}

func dotAsm(a, b []float32) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1]
	return dotfma(&a[0], &b[0], n)
}

func packedFastAsm(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int) {
	// Bounds asserted by MatMulU8I8PackedInto; the kernel reads 4·kq bytes
	// per operand row and writes 8 int32 per dst row.
	_ = a[(m-1)*lda+4*kq-1]
	_ = dst[(m-1)*ldd+7]
	_ = panel[kq*32-1]
	packedGEMMFastAVX2(&dst[0], &a[0], &panel[0], m, kq, lda, ldd)
}

func packedWideAsm(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int) {
	_ = a[(m-1)*lda+4*kq-1]
	_ = dst[(m-1)*ldd+7]
	_ = panel[kq*32-1]
	packedGEMMWideAVX2(&dst[0], &a[0], &panel[0], m, kq, lda, ldd)
}

func packedFast4Asm(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int) {
	// m is a positive multiple of 4 (asserted by the caller's row split).
	_ = a[(m-1)*lda+4*kq-1]
	_ = dst[(m-1)*ldd+7]
	_ = panel[kq*32-1]
	packedGEMMFast4AVX2(&dst[0], &a[0], &panel[0], m, kq, lda, ldd)
}

func packedWide4Asm(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int) {
	_ = a[(m-1)*lda+4*kq-1]
	_ = dst[(m-1)*ldd+7]
	_ = panel[kq*32-1]
	packedGEMMWide4AVX2(&dst[0], &a[0], &panel[0], m, kq, lda, ldd)
}

func packedEdgeAsm(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd, nr int) {
	// nr ∈ [1, 7] (checked by gemmPackedBlock's panel split); the masked
	// store writes exactly nr int32 per row.
	_ = a[(m-1)*lda+4*kq-1]
	_ = dst[(m-1)*ldd+nr-1]
	_ = panel[kq*32-1]
	packedGEMMEdgeAVX2(&dst[0], &a[0], &panel[0], m, kq, lda, ldd, nr)
}

func f32Panel4Asm(dst, a, panel []float32, m, k, ars, aks, ldd int) {
	// m is a positive multiple of 4; each row reads k strided taps of a
	// and writes 16 consecutive dst floats.
	_ = a[(m-1)*ars+(k-1)*aks]
	_ = dst[(m-1)*ldd+15]
	_ = panel[k*16-1]
	packedF32GEMM4x16FMA(&dst[0], &a[0], &panel[0], m, k, ars, aks, ldd)
}

func f32Panel1Asm(dst, a, panel []float32, k, aks int) {
	_ = a[(k-1)*aks]
	_ = dst[15]
	_ = panel[k*16-1]
	packedF32GEMM1x16FMA(&dst[0], &a[0], &panel[0], k, aks)
}

func f32Panel4w8Asm(dst, a, panel []float32, m, k, ars, aks, ldd int) {
	_ = a[(m-1)*ars+(k-1)*aks]
	_ = dst[(m-1)*ldd+7]
	_ = panel[k*8-1]
	packedF32GEMM4x8FMA(&dst[0], &a[0], &panel[0], m, k, ars, aks, ldd)
}

func f32Panel1w8Asm(dst, a, panel []float32, k, aks int) {
	_ = a[(k-1)*aks]
	_ = dst[7]
	_ = panel[k*8-1]
	packedF32GEMM1x8FMA(&dst[0], &a[0], &panel[0], k, aks)
}
