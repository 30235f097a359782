package tensor

import (
	"fmt"
	"math"
)

// Fused Q31 requantization: the integer serving engine's epilogue. A GEMM
// accumulator lowers onto the uint8 output grid through a fixed-point
// multiplier M ≈ m0·2^−rsh (m0 ∈ [0, 2^31), rsh ∈ [1, 62]); the fused
// kernel applies, per element,
//
//	v = sat32(acc + corr)                     // int64 add, saturate to int32
//	r = sat32((v·m0 + 1<<(rsh−1)) >> rsh)     // 64-bit product, arithmetic
//	                                          // shift, round half toward +∞
//	y = min(max(r+zp, lo), 255)               // zero point + activation clamp
//
// and stores y as one uint8. These semantics are pinned: every
// implementation — portable Go here, AVX2 and NEON assembly behind the
// SetSIMD dispatch — produces identical bytes for identical inputs,
// including the Q31 rounding ties and both saturation edges (the
// requantization is elementwise, so there is no accumulation-order
// freedom to lose). The int32 saturations only engage for degenerate
// channels whose folded bias exploded the accumulator domain, and those
// saturate at the uint8 boundary anyway. NEON narrows with SQXTN; the
// AVX2 kernel uses that the map is monotone in acc: it clamps acc per
// channel to a range on whose far sides the output already sits at lo
// or 255 and inside which the product and its high dword stay exact,
// then runs the chain on 8 int32 lanes (kernels_requant_amd64.s).
//
// Argument contract (checked; violations panic like an out-of-range slice
// index, since the epilogue runs inside parallel workers with no error
// path): m0 ∈ [0, 2^31) and rsh ∈ [1, 62] per channel, zp and lo in
// [0, 255]. corr is int64 because the folded bias−zero·Σw correction can
// exceed the int32 range before the saturating add.

// requantQ31One is the scalar reference for the pinned semantics above;
// the portable kernels apply it elementwise and the assembly kernels are
// fuzz-tested bit-identical against it.
func requantQ31One(acc int32, corr int64, m0, rsh, zp, lo int32) uint8 {
	v := int64(acc) + corr
	if v > math.MaxInt32 {
		v = math.MaxInt32
	} else if v < math.MinInt32 {
		v = math.MinInt32
	}
	r := (v*int64(m0) + 1<<(uint(rsh)-1)) >> uint(rsh)
	if r > math.MaxInt32 {
		r = math.MaxInt32
	} else if r < math.MinInt32 {
		r = math.MinInt32
	}
	y := r + int64(zp)
	if y < int64(lo) {
		y = int64(lo)
	}
	if y > 255 {
		y = 255
	}
	return uint8(y)
}

// requantRowsAsm, repointed by the per-arch SIMD dispatch (nil where
// unavailable), covers m rows × nc4 channels of a row-major accumulator
// (stride lda int32s) into a row-major uint8 destination (stride ldd
// bytes); nc4 is a positive multiple of 4. It processes channel groups
// — 8 then 4 on AVX2, 4 on NEON — with per-group parameters hoisted out
// of the row loop. Remainder channels always take the scalar reference.
var requantRowsAsm func(dst []uint8, acc []int32, m0, rsh []int32, corr []int64, zp, lo int32, m, nc4, lda, ldd int)

func checkRequantParams(m0, rsh []int32, corr []int64, zp, lo int32, nc int) {
	if len(m0) < nc || len(rsh) < nc || len(corr) < nc {
		panic(fmt.Sprintf("tensor: requantQ31 params cover %d/%d/%d channels, want >= %d",
			len(m0), len(rsh), len(corr), nc))
	}
	if zp < 0 || zp > 255 || lo < 0 || lo > 255 {
		panic(fmt.Sprintf("tensor: requantQ31 zero point %d / floor %d outside [0, 255]", zp, lo))
	}
	for c := 0; c < nc; c++ {
		if m0[c] < 0 {
			panic(fmt.Sprintf("tensor: requantQ31 multiplier m0[%d] = %d negative", c, m0[c]))
		}
		if rsh[c] < 1 || rsh[c] > 62 {
			panic(fmt.Sprintf("tensor: requantQ31 shift rsh[%d] = %d outside [1, 62]", c, rsh[c]))
		}
	}
}

// RequantQ31Rows requantizes a row-major (m, nc) int32 accumulator (row
// stride lda ≥ nc) into a row-major uint8 destination (row stride
// ldd ≥ nc) with per-channel multipliers: the epilogue of both int8
// layers — rows are samples of a linear, output positions of an NHWC
// conv band — with columns the output channels.
func RequantQ31Rows(dst []uint8, acc []int32, m0, rsh []int32, corr []int64, zp, lo int32, m, nc, lda, ldd int) {
	if m <= 0 || nc <= 0 {
		panic(fmt.Sprintf("tensor: requantQ31Rows dims (%d,%d) must be positive", m, nc))
	}
	if lda < nc || ldd < nc {
		panic(fmt.Sprintf("tensor: requantQ31Rows strides (%d,%d) < nc %d", lda, ldd, nc))
	}
	if need := (m-1)*lda + nc; len(acc) < need {
		panic(fmt.Sprintf("tensor: requantQ31Rows accumulator has %d elements, want >= %d", len(acc), need))
	}
	if need := (m-1)*ldd + nc; len(dst) < need {
		panic(fmt.Sprintf("tensor: requantQ31Rows destination has %d elements, want >= %d", len(dst), need))
	}
	checkRequantParams(m0, rsh, corr, zp, lo, nc)
	nc4 := nc &^ 3
	if nc4 > 0 {
		if f := requantRowsAsm; f != nil {
			f(dst, acc, m0, rsh, corr, zp, lo, m, nc4, lda, ldd)
		} else {
			requantRowsGo(dst, acc, m0, rsh, corr, zp, lo, m, nc4, lda, ldd)
		}
	}
	if nc4 == nc {
		return
	}
	for i := 0; i < m; i++ {
		arow := acc[i*lda:]
		drow := dst[i*ldd:]
		for c := nc4; c < nc; c++ {
			drow[c] = requantQ31One(arow[c], corr[c], m0[c], rsh[c], zp, lo)
		}
	}
}

// requantRowsGo is the portable mirror of the rows kernel (any traversal
// order is bit-identical: the map is elementwise).
func requantRowsGo(dst []uint8, acc []int32, m0, rsh []int32, corr []int64, zp, lo int32, m, nc4, lda, ldd int) {
	for i := 0; i < m; i++ {
		arow := acc[i*lda : i*lda+nc4]
		drow := dst[i*ldd : i*ldd+nc4]
		for c, a := range arow {
			drow[c] = requantQ31One(a, corr[c], m0[c], rsh[c], zp, lo)
		}
	}
}

// RequantQ31Transpose requantizes a position-major (np, nc) int32
// accumulator (position stride lda ≥ nc) into a channel-major uint8
// destination — element (p, c) lands at dst[c·ldd+p] — with per-channel
// multipliers: the epilogue shape of the NCHW conv form
// (ConvU8I8ImplicitInto), kept as portable Go for its oracle and
// benchmark.
func RequantQ31Transpose(dst []uint8, acc []int32, m0, rsh []int32, corr []int64, zp, lo int32, np, nc, lda, ldd int) {
	if np <= 0 || nc <= 0 {
		panic(fmt.Sprintf("tensor: requantQ31Transpose dims (%d,%d) must be positive", np, nc))
	}
	if lda < nc || ldd < np {
		panic(fmt.Sprintf("tensor: requantQ31Transpose strides (%d,%d) < (nc %d, np %d)", lda, ldd, nc, np))
	}
	if need := (np-1)*lda + nc; len(acc) < need {
		panic(fmt.Sprintf("tensor: requantQ31Transpose accumulator has %d elements, want >= %d", len(acc), need))
	}
	if need := (nc-1)*ldd + np; len(dst) < need {
		panic(fmt.Sprintf("tensor: requantQ31Transpose destination has %d elements, want >= %d", len(dst), need))
	}
	checkRequantParams(m0, rsh, corr, zp, lo, nc)
	for c := 0; c < nc; c++ {
		row := dst[c*ldd : c*ldd+np]
		corrc, m0c, rshc := corr[c], m0[c], rsh[c]
		for p := range row {
			row[p] = requantQ31One(acc[p*lda+c], corrc, m0c, rshc, zp, lo)
		}
	}
}

// QuantizeU8 is the integer engine's input quantize, the one scalar
// definition: v onto the affine uint8 grid r = scale·(q − zero) as
// round(float64(v)/float64(scale)) + zero (round half away from zero),
// clamped to [0, 255], with NaN pinned to the zero point (the grid's
// 0.0): uint8(NaN) is platform-defined in Go, and a serving tier fed a
// hostile payload must stay deterministic.
func QuantizeU8(v, scale float32, zero int32) uint8 {
	x := math.Round(float64(v)/float64(scale)) + float64(zero)
	switch {
	case math.IsNaN(x):
		x = float64(zero)
	case x < 0:
		x = 0
	case x > 255:
		x = 255
	}
	return uint8(x)
}

// QuantizeNHWC quantizes an (n, c, hw) float batch onto the grid
// (scale, zero) by QuantizeU8, storing it (n, hw, c): the engine's input
// boundary, an NCHW tensor onto an NHWC payload. Each channel plane is
// read contiguously.
func QuantizeNHWC(dst []uint8, src []float32, n, c, hw int, scale float32, zero int32) {
	if n < 0 || c < 0 || hw < 0 || len(src) < n*c*hw || len(dst) < n*c*hw {
		panic(fmt.Sprintf("tensor: QuantizeNHWC (%d,%d,%d) over src %d / dst %d", n, c, hw, len(src), len(dst)))
	}
	for t := 0; t < n*c; t++ {
		out := dst[t/c*hw*c+t%c:]
		for p, v := range src[t*hw : (t+1)*hw] {
			out[p*c] = QuantizeU8(v, scale, zero)
		}
	}
}
