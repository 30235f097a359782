//go:build amd64

package tensor

import (
	"math"
	"os"
)

// Runtime CPU dispatch for the amd64 SIMD kernels. The float assembly in
// kernels_amd64.s needs AVX2 and FMA3; the integer panel kernels in
// kernels_int_amd64.s and the batch-norm kernels in kernels_bn_amd64.s
// need AVX2. Both are checked via CPUID along with OS
// support for saving YMM state (OSXSAVE + XCR0), following the standard
// detection sequence. When any check fails — or APT_NOSIMD is set in the
// environment — the portable Go kernels stay in place.

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

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
func convStripGEMM4x16FMA(dst, a, b0, b1, b2, b3 *float32, ofs *int32, m, k, ars, ldd, quarter int)

//go:noescape
func convStripDX4x16FMA(dst, a, b0, b1, b2, b3 *float32, ofs *int32, m, seg, k, ldd, quarter int)

//go:noescape
func stageRowsAVX2(dst, src *float32, planes, h, w, sp, rs, e, o, ph int)

//go:noescape
func interleaveAVX2(dst, e, o *float32, n, rows, ds int)

//go:noescape
func convStripDWT4FMA(dst, strip *float32, ofs *int32, panel *float32, m, nb, oh, ow, st, rskip, sskip, ldd, pw int)

//go:noescape
func bnMomentsAVX2(x *float32, n, plane, stride int, cnt float64) (mean, variance float64)

//go:noescape
func bnAffineAVX2(y, x *float32, n, plane, stride int, scale, shift, lo, z, hi float32)

//go:noescape
func bnGradSumsAVX2(dy, x, y *float32, n, plane, stride int, mean float64, top int) (sumDy, sumDyXc float64)

//go:noescape
func bnGradInputAVX2(dx, dy, x, y *float32, n, plane, stride int, mean, mdy, k, a float32, top int)

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
		packedAsmFast, packedAsmWide = nil, nil
		packedAsmFast4, packedAsmWide4 = nil, nil
		packedAsmEdge = nil
		pack3Asm = nil
		tapGatherAsm, tapScatterAsm = nil, nil
		bnMomentsAsm, bnAffineAsm, bnGradSumsAsm, bnGradInputAsm = nil, nil, nil, nil
		f32Panel4, f32Panel1 = f32Panel4Go, f32Panel1Go
		f32Panel4w8, f32Panel1w8 = f32Panel4x8Go, f32Panel1x8Go
		f32StripPanel, f32StripDW, f32StripDX = f32StripPanelGo, f32StripDWGo, f32StripDXGo
		interleave, stageRows = interleaveGo, stageRowsGo
		requantRowsAsm, requantTransAsm = nil, nil
		return
	}
	packedAsmFast = packedFastAsm
	packedAsmWide = packedWideAsm
	packedAsmFast4 = packedFast4Asm
	packedAsmWide4 = packedWide4Asm
	packedAsmEdge = packedEdgeAsm
	pack3Asm = pack3AVX2Wrap
	tapGatherAsm = tapGatherAVX2Wrap
	tapScatterAsm = tapScatterAVX2Wrap
	bnMomentsAsm = bnMomentsAVX2Wrap
	bnAffineAsm = bnAffineAVX2Wrap
	bnGradSumsAsm = bnGradSumsAVX2Wrap
	bnGradInputAsm = bnGradInputAVX2Wrap
	f32Panel4 = f32Panel4Asm
	f32Panel1 = f32Panel1Asm
	f32Panel4w8 = f32Panel4w8Asm
	f32Panel1w8 = f32Panel1w8Asm
	f32StripPanel = stripPanelFMAWrap
	f32StripDW = stripDWFMAWrap
	f32StripDX = stripDXFMAWrap
	interleave = interleaveAVX2Wrap
	stageRows = stageRowsAVX2Wrap
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

// The strip wrappers take hi, the largest entry of a (non-negative, not
// ascending) offset table, kept by the plan. runPtrs pins the last strip
// float of runs r at offsets up to hi and returns the run bases (halves
// leave b2, b3 unread) and 1 for quarters.
func runPtrs(strip []float32, r stripRuns, hi int) (b0, b1, b2, b3 *float32, quarter int) {
	_ = strip[max(r.b[0], r.b[1], r.b[2], r.b[3])+hi+r.w-1]
	if r.w == 4 {
		quarter = 1
	}
	return &strip[r.b[0]], &strip[r.b[1]], &strip[r.b[2]], &strip[r.b[3]], quarter
}

func stripPanelFMAWrap(dst, a, strip []float32, ofs []int32, m, k, ars, ldd, hi int, r stripRuns) {
	_ = ofs[k-1]
	_ = a[(m-1)*ars+k-1]
	_ = dst[(m-1)*ldd+15]
	b0, b1, b2, b3, quarter := runPtrs(strip, r, hi)
	// m ≥ 4 (pinned: m4 = 0 would not stop the kernel); with no one-row
	// kernel, rows m−4 … m−1 of a ragged m run once more, to the same bytes.
	_ = dst[(m-4)*ldd]
	m4 := m &^ 3
	convStripGEMM4x16FMA(&dst[0], &a[0], b0, b1, b2, b3, &ofs[0], m4, k, ars, ldd, quarter)
	if m4 < m {
		convStripGEMM4x16FMA(&dst[(m-4)*ldd], &a[(m-4)*ars], b0, b1, b2, b3, &ofs[0], 4, k, ars, ldd, quarter)
	}
}

func stripDXFMAWrap(dst, a, strip []float32, ofs []int32, seg, hi, m, ldd int, r stripRuns) {
	// m is a positive multiple of 4 and seg divides len(ofs).
	k := len(ofs)
	_ = a[m*k-1]
	_ = dst[(m-1)*ldd+15]
	b0, b1, b2, b3, quarter := runPtrs(strip, r, hi)
	convStripDX4x16FMA(&dst[0], &a[0], b0, b1, b2, b3, &ofs[0], m, seg, k, ldd, quarter)
}

func stripDWFMAWrap(dst, strip []float32, ofs []int32, hi int, panel []float32, pw int, w stripWalk, ldd int) {
	// len(ofs) is a positive multiple of 4; the walk's strides are
	// non-negative, so its last tap is its farthest.
	m := len(ofs)
	_ = strip[hi+(w.nb-1)*w.sps+(w.oh-1)*w.rs+(w.ow-1)*w.st]
	_ = panel[w.nb*w.oh*w.ow*pw-1]
	_ = dst[(m-1)*ldd+pw-1]
	convStripDWT4FMA(&dst[0], &strip[0], &ofs[0], &panel[0], m, w.nb, w.oh, w.ow, w.st, w.rs-w.ow*w.st, w.sps-w.oh*w.rs, ldd, pw)
}

func interleaveAVX2Wrap(dst, e, o []float32, n, rows, ds int) {
	// n is a positive multiple of 4.
	_ = dst[(rows-1)*ds+2*n-1]
	_ = e[rows*n-1]
	_ = o[rows*n-1]
	interleaveAVX2(&dst[0], &e[0], &o[0], n, rows, ds)
}

func stageRowsAVX2Wrap(dst, src []float32, planes, h, w, sp, rs, e, o, ph int) {
	if w%(4*ph) != 0 { // the kernel moves whole steps only
		stageRowsGo(dst, src, planes, h, w, sp, rs, e, o, ph)
		return
	}
	// The last row's last float lands at +e or +o, both under rs.
	_ = src[planes*h*w-1]
	_ = dst[(planes-1)*sp+(h-1)*rs+max(e, o)+(w-1)/ph]
	stageRowsAVX2(&dst[0], &src[0], planes, h, w, sp, rs, e, o, ph)
}

// The batch-norm wrappers pin the last float of the channel's last plane
// in every operand: the kernels touch nothing past it (partial groups are
// masked), and n, plane ≥ 1 make it the walk's extreme. The kernels read
// the rectified output y only under a rectifier (top ≠ 0).

func bnMomentsAVX2Wrap(x []float32, n, plane, stride int, cnt float64) (mean, variance float64) {
	_ = x[(n-1)*stride+plane-1]
	return bnMomentsAVX2(&x[0], n, plane, stride, cnt)
}

// clamp is r as min(max(v, lo) + z, hi), the SIMD kernels' branch-free
// form: none is the identity (−Inf, −0, +Inf), and the +0 of a rectifier
// turns the −0 that max keeps into the +0 Go's max returns.
func (r Rect) clamp() (lo, z, hi float32) {
	if !r.on {
		return float32(math.Inf(-1)), float32(math.Copysign(0, -1)), float32(math.Inf(1))
	}
	return 0, 0, r.hi
}

func bnAffineAVX2Wrap(y, x []float32, n, plane, stride int, scale, shift float32, r Rect) {
	e := (n-1)*stride + plane - 1
	_ = y[e]
	_ = x[e]
	lo, z, hi := r.clamp()
	bnAffineAVX2(&y[0], &x[0], n, plane, stride, scale, shift, lo, z, hi)
}

func bnGradSumsAVX2Wrap(dy, x, y []float32, n, plane, stride int, mean float64, r Rect) (sumDy, sumDyXc float64) {
	e := (n-1)*stride + plane - 1
	_ = dy[e]
	_ = x[e]
	_ = y[e]
	return bnGradSumsAVX2(&dy[0], &x[0], &y[0], n, plane, stride, mean, int(r.top))
}

func bnGradInputAVX2Wrap(dx, dy, x, y []float32, n, plane, stride int, mean, mdy, k, a float32, r Rect) {
	e := (n-1)*stride + plane - 1
	_ = dx[e]
	_ = dy[e]
	_ = x[e]
	_ = y[e]
	bnGradInputAVX2(&dx[0], &dy[0], &x[0], &y[0], n, plane, stride, mean, mdy, k, a, int(r.top))
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
