//go:build arm64

package tensor

import "os"

// NEON dispatch for arm64. Advanced SIMD is baseline on AArch64, so there
// is no feature probe: the NEON kernels from kernels_arm64.s,
// kernels_int_arm64.s and kernels_requant_arm64.s are installed
// unconditionally unless APT_NOSIMD is set (or SetSIMD(false) is called),
// in which case the portable Go kernels — the cross-arch reference —
// stay in place. The float GEMM has the two 4-row panel kernels (4×16,
// 4×8) and no one-row kernel: f32PackedTile reruns remainder rows inside
// a group of four, as on amd64.
//
// Deliberately left portable on arm64: the nr<8 integer edge kernel
// (packedAsmEdge stays nil; the portable edge loop handles partial
// panels, which only ever cover the last few columns of a layer), the
// float conv's strip kernels (f32StripPanel and its siblings keep their
// portable twins) and the batch-norm channel kernels (bnMomentsAsm and its
// three siblings stay nil; the portable lane loops in batchnorm.go run).

//go:noescape
func packedGEMMNEON(dst *int32, a *uint8, panel *int8, m, ow, lda, rs, segq, nseg, sst, ldd int)

//go:noescape
func packedF32GEMM4x16NEON(dst, a, panel *float32, m, k, ars, aks, ldd int)

//go:noescape
func packedF32GEMM4x8NEON(dst, a, panel *float32, m, k, ars, aks, ldd int)

//go:noescape
func requantQ31RowsNEON(dst *uint8, acc *int32, m0, rsh *int32, corr *int64, zp, lo, m, nc4, lda, ldd int)

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
		packedAsm = nil
		f32Panel4 = f32Panel4Go
		requantRowsAsm = nil
		return
	}
	packedAsm = packedNEONAsm
	f32Panel4 = f32Panel4NEONWrap
	requantRowsAsm = requantRowsNEONWrap
}

func packedNEONAsm(dst []int32, a []uint8, panel []int8, w aWalk, ldd int) {
	// Pin one past the walk's last operand byte, the last row's last
	// stored int32 and the panel's last quad (runPackedPanel sizes them).
	_ = a[w.last()-1]
	_ = dst[(w.m-1)*ldd+7]
	_ = panel[w.nseg*w.segq*32-1]
	packedGEMMNEON(&dst[0], &a[0], &panel[0], w.m, w.ow, w.lda, w.rs, w.segq, w.nseg, w.sst, ldd)
}

func f32Panel4NEONWrap(dst, a, panel []float32, m, k, ars, aks, ldd, pw, _ int) {
	// m is a positive multiple of 4 and the panel is full (nr = pw); each
	// row reads k strided taps of a and writes pw consecutive dst floats.
	_ = a[(m-1)*ars+(k-1)*aks]
	_ = dst[(m-1)*ldd+pw-1]
	_ = panel[k*pw-1]
	if pw == f32PanelCols {
		packedF32GEMM4x16NEON(&dst[0], &a[0], &panel[0], m, k, ars, aks, ldd)
	} else {
		packedF32GEMM4x8NEON(&dst[0], &a[0], &panel[0], m, k, ars, aks, ldd)
	}
}

func requantRowsNEONWrap(dst []uint8, acc []int32, r *Requant, m, nc4, lda, ldd int) {
	// Bounds asserted by RequantQ31Rows; re-pin the extremes the kernel
	// touches (last row's last group and every per-channel parameter).
	_ = acc[(m-1)*lda+nc4-1]
	_ = dst[(m-1)*ldd+nc4-1]
	_ = r.m0[nc4-1]
	_ = r.rsh[nc4-1]
	_ = r.corr[nc4-1]
	requantQ31RowsNEON(&dst[0], &acc[0], &r.m0[0], &r.rsh[0], &r.corr[0], int(r.zp), int(r.lo), m, nc4, lda, ldd)
}
