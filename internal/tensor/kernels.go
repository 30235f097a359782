package tensor

import (
	"fmt"
	"runtime"
)

// Low-level fused kernels behind the GEMM routines. Every kernel has a
// portable Go implementation here; on amd64 with AVX2+FMA (see
// kernels_amd64.go) and on arm64 with NEON (see kernels_arm64.go) the
// dispatch variables are repointed at assembly versions during init.
// Dispatch is per-row-block, so the indirection cost is negligible next
// to the O(n) work of each call. The portable kernels are the cross-arch
// reference: the integer and requant assembly must match them
// bit-for-bit on both architectures.
//
// All kernels are deterministic: for a given input they produce the same
// bits regardless of the worker count driving them, which is what keeps
// ParallelFor-partitioned GEMMs bit-identical to their serial runs.

// SIMD dispatch state. simdApply is overridden by the per-arch init when
// usable vector kernels exist; it repoints every dispatch variable (the
// packed float and integer panel kernels, the float conv's strip kernels,
// the batch-norm kernels and the requant epilogue) at either the
// assembly or the portable implementations. The APT_NOSIMD environment
// variable keeps the portable kernels in place at startup, so the
// fallback path is testable on SIMD hardware.
var (
	simdOn       bool
	simdFeatures string
	simdApply    = func(bool) {}
)

// SetSIMD enables or disables the assembly kernel dispatch at runtime and
// returns the previous setting. On hosts without usable SIMD kernels it
// is a no-op (SIMDActive stays false). Like SetMaxWorkers, this is meant
// for tests and benchmarks and is not synchronized with in-flight
// operations.
func SetSIMD(on bool) bool {
	prev := simdOn
	simdApply(on)
	return prev
}

// SIMDActive reports whether the assembly kernels are currently
// dispatched.
func SIMDActive() bool { return simdOn }

// SIMDFeatures names the CPU features backing the assembly kernels
// (e.g. "avx2,fma"), or "" when no SIMD path exists on this host. The
// feature set is reported even while dispatch is disabled via APT_NOSIMD
// or SetSIMD(false).
func SIMDFeatures() string { return simdFeatures }

// KernelSummary describes the active kernel routing in one line for
// diagnostic output (aptinspect, bench headers): architecture, feature
// set, and which of the serving-path kernel families — packed GEMM,
// the partial-panel edge kernel, and the Q31 requant epilogue — are on
// assembly versus the portable Go reference.
func KernelSummary() string {
	if !simdOn {
		reason := "APT_NOSIMD or SetSIMD(false)"
		if simdFeatures == "" {
			reason = "no SIMD kernels for " + runtime.GOARCH
		}
		return fmt.Sprintf("%s: portable Go reference kernels (%s)", runtime.GOARCH, reason)
	}
	edge := "portable edge"
	if packedAsmEdge != nil {
		edge = "masked-store edge"
	}
	requant := "portable requant"
	if requantRowsAsm != nil {
		requant = "SIMD requant"
	}
	return fmt.Sprintf("%s: %s packed GEMM + %s + %s", runtime.GOARCH, simdFeatures, edge, requant)
}

// f32Panel4Go is the portable packed-panel micro-kernel: groups of four
// rows over nr ≤ pw columns of a pw-wide panel (writing only those nr,
// so it also serves the zero-padded right-edge panel), one accumulator
// per output element, k ascending — the same order as the FMA assembly,
// so the two agree to float32 rounding (the assembly fuses each
// multiply-add into one rounding; see matmul_packed.go). Row r, tap q of
// the operand lives at a[r*ars + q*aks]; m is a multiple of 4.
func f32Panel4Go(dst, a, panel []float32, m, k, ars, aks, ldd, pw, nr int) {
	for i := 0; i+3 < m; i += 4 {
		a0, a1, a2, a3 := a[i*ars:], a[(i+1)*ars:], a[(i+2)*ars:], a[(i+3)*ars:]
		var c [4][f32PanelCols]float32
		c0, c1, c2, c3 := c[0][:nr], c[1][:nr], c[2][:nr], c[3][:nr]
		for q := 0; q < k; q++ {
			pq := panel[q*pw : q*pw+nr]
			v0, v1, v2, v3 := a0[q*aks], a1[q*aks], a2[q*aks], a3[q*aks]
			for j, w := range pq {
				c0[j] += v0 * w
				c1[j] += v1 * w
				c2[j] += v2 * w
				c3[j] += v3 * w
			}
		}
		for r, cr := range [4][]float32{c0, c1, c2, c3} {
			copy(dst[(i+r)*ldd:(i+r)*ldd+nr], cr)
		}
	}
}

// stripRuns locates one 16-column panel in a strip: 16/w runs of w
// floats (w = 8, halves, or 4, quarters), run j at b[j] past a row's
// offset. Every run stays inside one output row, so it is contiguous.
type stripRuns struct {
	b [4]int
	w int
}

// f32StripPanelGo is the portable strip-route forward kernel: rows i < m
// of the product f32Panel4Go computes (aks = 1, pw = nr = 16), one row at
// a time, over a panel whose row q is read from the staging strip as the
// runs r past ofs[q]. Every offset lies in [0, hi].
func f32StripPanelGo(dst, a, strip []float32, ofs []int32, m, k, ars, ldd, hi int, r stripRuns) {
	for i := 0; i < m; i++ {
		ar := a[i*ars:]
		var c [16]float32
		for q, o := range ofs[:k] {
			stripTap(&c, ar[q], strip, int(o), r)
		}
		copy(dst[i*ldd:i*ldd+16], c[:])
	}
}

// stripTap adds v times panel row o of the strip (runs r) into c.
func stripTap(c *[16]float32, v float32, strip []float32, o int, r stripRuns) {
	for j0 := 0; j0 < 16; j0 += r.w {
		for j, b := range strip[r.b[j0/r.w]+o:][:r.w] {
			c[j0+j] += v * b
		}
	}
}

// f32StripDXGo is the portable strip-route input-gradient kernel: rows
// i < m of dst (stride ldd) over one 16-column panel read from the strip
// as f32StripPanelGo reads it, operand row i at a[i·len(ofs):], with the k
// walk cut into segments of seg taps: each segment sums into a fresh
// accumulator in f32Panel4Go's order and is then added into dst. Every
// offset lies in [0, hi].
func f32StripDXGo(dst, a, strip []float32, ofs []int32, seg, hi, m, ldd int, r stripRuns) {
	k := len(ofs)
	for i := 0; i < m; i++ {
		ar, d := a[i*k:(i+1)*k], dst[i*ldd:i*ldd+16]
		for q0 := 0; q0 < k; q0 += seg {
			var c [16]float32
			for q, o := range ofs[q0 : q0+seg] {
				stripTap(&c, ar[q0+q], strip, int(o), r)
			}
			for j, v := range c {
				d[j] += v
			}
		}
	}
}

// stripWalk is the k walk of the weight gradient's strip operand: tap
// k = (il·oh + oy)·ow + ox sits sps·il + rs·oy + st·ox past the row's base.
type stripWalk struct{ nb, oh, ow, sps, rs, st int }

// f32StripDWGo is the portable strip-route weight-gradient kernel: rows
// r < len(ofs) of dst (stride ldd) become A·panel, where A's row r, tap k
// is strip[ofs[r] + walk(k)] and panel is a packed pw-wide (pw = 16 or 8)
// column panel of walk-many rows. Same accumulation order as f32Panel4Go.
// Every offset lies in [0, hi].
func f32StripDWGo(dst, strip []float32, ofs []int32, hi int, panel []float32, pw int, w stripWalk, ldd int) {
	for r, o := range ofs {
		var c [f32PanelCols]float32
		pq := panel
		for il := 0; il < w.nb; il++ {
			for oy := 0; oy < w.oh; oy++ {
				src := strip[int(o)+il*w.sps+oy*w.rs:]
				for ox := 0; ox < w.ow; ox++ {
					v := src[ox*w.st]
					for j, b := range pq[:pw] {
						c[j] += v * b
					}
					pq = pq[pw:]
				}
			}
		}
		copy(dst[r*ldd:r*ldd+pw], c[:pw])
	}
}

// dwRows is the weight-gradient kernels' row group for pw-wide panels (4
// at 16, 8 at 8: eight accumulator registers either way).
func dwRows(pw int) int { return 64 / pw }

// fillDoutTGo fills the doutᵀ panels from a band's dout, nb samples of
// outC planes of s positions: panel o0/tpw holds channels o0 … o0+tpw−1,
// its row il·s+k position k of sample il; columns past outC keep theirs.
func fillDoutTGo(dT, dout []float32, outC, s, nb, tpw int) {
	for o0 := 0; o0 < outC; o0 += tpw {
		for il := 0; il < nb; il++ {
			transposeGo(dT[(o0*nb+il*tpw)*s:], dout[(il*outC+o0)*s:], min(tpw, outC-o0), s, s, tpw)
		}
	}
}

// transposeGo writes n rows of dst (pw apart) from nc rows of src (ld
// apart): dst[k·pw + r] = src[r·ld + k] for r < nc, k < n.
func transposeGo(dst, src []float32, nc, n, ld, pw int) {
	for k := 0; k < n; k++ {
		row := dst[k*pw:][:nc]
		for r := range row {
			row[r] = src[r*ld+k]
		}
	}
}

// skipAdd is Skip.addTo's loop: d = a + g, with g masked by y where
// 0 < bits(y) < top (Rect.pass) unless top is 0; a is the add's first
// operand, as in nn's residual add.
var skipAdd = skipAddGo

func skipAddGo(d, a, g, y []float32, top int32) {
	r := Rect{top: top}
	for k, v := range a {
		if top != 0 {
			d[k] = v + r.pass(g[k], y[k])
		} else {
			d[k] = v + g[k]
		}
	}
}

// interleaveGo writes rows r < rows of dst (row stride ds) from e's and
// o's rows of n floats (n a multiple of 4, rows es apart), alternating:
// dst[2b] = e[b], dst[2b+1] = o[b].
func interleaveGo(dst, e, o []float32, n, rows, es, ds int) {
	for r := 0; r < rows; r++ {
		d, er, or := dst[r*ds:][:2*n], e[r*es:][:n], o[r*es:][:n]
		for b := 0; b < n; b += 4 {
			x, y, q := er[b:b+4:b+4], or[b:b+4:b+4], d[2*b:2*b+8:2*b+8]
			q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7] = x[0], y[0], x[1], y[1], x[2], y[2], x[3], y[3]
		}
	}
}

// stageRowsGo copies planes·h rows of w floats (rows w apart) into a
// strip: row y of plane pl goes to the strip row at pl·sp + y·rs, whole
// from +e at ph = 1; at ph = 2 its even floats from +e and its odd ones
// from +o.
func stageRowsGo(dst, src []float32, planes, h, w, sp, rs, e, o, ph int) {
	for pl := 0; pl < planes; pl++ {
		for y := 0; y < h; y++ {
			d, r := dst[pl*sp+y*rs:], src[(pl*h+y)*w:][:w]
			if ph == 1 {
				copy(d[e:], r)
				continue
			}
			for i, v := range r {
				d[[2]int{e, o}[i%2]+i/2] = v
			}
		}
	}
}
