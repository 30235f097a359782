package tensor

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
// AVX2 kernel runs the chain on 8 int32 lanes behind a per-channel
// accumulator clamp that NewRequant lays out once per layer (rqLanes).
//
// Argument contract, checked by NewRequant (and by RequantQ31Transpose,
// which panics): m0 ∈ [0, 2^31) and rsh ∈ [1, 62] per channel, zp and lo
// in [0, 255]. corr is int64 because the folded bias−zero·Σw correction
// can exceed the int32 range before the saturating add.

// Requant is one layer's Q31 requantization: per-channel m0, rsh and
// corr, the output zero point zp and the activation floor lo. It is
// checked and laid out once (NewRequant) and immutable afterwards, so
// concurrent epilogues share it.
type Requant struct {
	m0, rsh []int32
	corr    []int64
	zp, lo  int32
	lanes   []rqLanes // amd64: the AVX2 kernel's lane table
}

// NewRequant checks the argument contract over the len(m0) channels of
// m0, rsh and corr (m0 lowered as by LowerMultiplier) and returns the
// layer's requantization; on amd64 it also builds the AVX2 lane table.
func NewRequant(m0, rsh []int32, corr []int64, zp, lo int32) (*Requant, error) {
	nc := len(m0)
	if nc == 0 {
		return nil, fmt.Errorf("%w: requant has no channels", ErrShape)
	}
	if err := checkRequant(m0, rsh, corr, zp, lo, nc); err != nil {
		return nil, err
	}
	r := &Requant{m0: slices.Clone(m0), rsh: slices.Clone(rsh[:nc]), corr: slices.Clone(corr[:nc]), zp: zp, lo: lo}
	if runtime.GOARCH == "amd64" {
		r.lanes = rqLaneTable(r.m0, r.rsh, r.corr)
	}
	return r, nil
}

func checkRequant(m0, rsh []int32, corr []int64, zp, lo int32, nc int) error {
	if len(m0) < nc || len(rsh) < nc || len(corr) < nc {
		return fmt.Errorf("%w: requant m0/rsh/corr cover %d/%d/%d channels, want %d",
			ErrShape, len(m0), len(rsh), len(corr), nc)
	}
	if zp < 0 || zp > 255 || lo < 0 || lo > 255 {
		return fmt.Errorf("tensor: requant zero point %d / floor %d outside [0, 255]", zp, lo)
	}
	for c := range nc {
		if m0[c] < 0 || rsh[c] < 1 || rsh[c] > 62 {
			return fmt.Errorf("tensor: requant channel %d: m0 %d or rsh %d outside [0, 2^31) / [1, 62]", c, m0[c], rsh[c])
		}
	}
	return nil
}

// rqLanes is one 8-channel group of the AVX2 kernel's lane table, in the
// order requantQ31RowsAVX2 loads it into Y0–Y9 (PERF.md, "Q31
// requantization"): the accumulator clamp aLo/aHi and the correction c
// wrapped to 32 bits; m0 of the even and of the odd channels, one per
// qword (VPMULDQ reads low dwords); 1<<(rsh−1) of the even and odd
// channels; the even lanes' right shift min(rsh, 32) and the odd lanes'
// left shift max(0, 32−rsh), per qword; max(0, rsh−32) per dword.
type rqLanes struct {
	aLo, aHi, c [8]int32
	m0E, m0O    [4]int64
	rndE, rndO  [4]int64
	shE, shO    [4]int64
	shHi        [8]int32
}

// rqLaneTable lays out the lane table, padded to whole 8-channel groups
// with the zero channel (m0 0, rsh 31, corr 0). The clamp rests on the
// map being monotone in acc: it may clamp v = acc+corr to any [vLo, vHi]
// on whose far sides the output already saturates. With
// k = clamp(rsh − e + 11, 1, 31), e = b or b+1 the exponent of
// float32(m0) ∈ [2^b, 2^(b+1)), vLo = −2^k and vHi = 2^k − 1 give
// r(vHi) ≥ 512 and r(vLo) ≤ −1024 when k < 31 (k = 31 is the int32
// range), and |r| < 2^31 on the whole range, so both dwords the kernel
// reads are exact for rsh ≤ 32 (and the 64-bit product never overflows).
// Moved to the accumulator, aLo/aHi = sat32(vLo/vHi − corr) and
// c = clamp(corr, vLo − aLo, vHi − aHi) wrapped to 32 bits make acc+c
// land on clamp(sat32(acc + corr), vLo, vHi), also when corr puts every
// accumulator past one edge.
func rqLaneTable(m0, rsh []int32, corr []int64) []rqLanes {
	t := make([]rqLanes, (len(m0)+7)/8)
	for ch := range 8 * len(t) {
		g, l, h := &t[ch/8], ch%8, ch%8/2
		m, s, cr := int32(0), int32(31), int64(0)
		if ch < len(m0) {
			m, s, cr = m0[ch], rsh[ch], corr[ch]
		}
		e := int32(math.Float32bits(float32(m))>>23) - 127
		k := min(max(s-e+11, 1), 31)
		vLo, vHi := -int64(1)<<k, int64(1)<<k-1
		aLo, aHi := sat32(vLo-cr), sat32(vHi-cr)
		g.aLo[l], g.aHi[l] = int32(aLo), int32(aHi)
		g.c[l] = int32(min(max(cr, vLo-aLo), vHi-aHi))
		g.shHi[l] = max(0, s-32)
		if l%2 == 0 {
			g.m0E[h], g.rndE[h], g.shE[h] = int64(m), 1<<(s-1), int64(min(s, 32))
		} else {
			g.m0O[h], g.rndO[h], g.shO[h] = int64(m), 1<<(s-1), int64(max(0, 32-s))
		}
	}
	return t
}

func sat32(v int64) int64 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	} else if v < math.MinInt32 {
		return math.MinInt32
	}
	return v
}

// MulQ31 is the scalar Q31 step of the pinned semantics:
// sat32((sat32(acc)·m0 + 1<<(rsh−1)) >> rsh), round(acc·m0·2^−rsh) with
// ties toward +∞. The residual join tabulates it per branch byte.
func MulQ31(acc int64, m0, rsh int32) int32 {
	return int32(sat32((sat32(acc)*int64(m0) + 1<<(uint(rsh)-1)) >> uint(rsh)))
}

// LowerMultiplier decomposes a positive real multiplier into
// M ≈ m0·2^−rsh with m0 ∈ [2^30, 2^31), so the hot loop applies it with
// one 64-bit multiply and one rounding shift — integer arithmetic end to
// end, the deployment property the paper's §III quantization scheme
// (Jacob et al., CVPR 2018) was chosen for. Non-positive and non-finite
// multipliers, and those below 2^−31, lower to (0, 31): everything
// requantizes to zero; those of 2^30 and above saturate to (2^31−1, 1).
func LowerMultiplier(m float64) (m0, rsh int32) {
	if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		return 0, 31
	}
	frac, exp := math.Frexp(m) // m = frac·2^exp, frac ∈ [0.5, 1)
	q := int64(math.Round(frac * (1 << 31)))
	if q == 1<<31 { // frac rounded up to 1.0
		q >>= 1
		exp++
	}
	rsh = 31 - int32(exp)
	if rsh < 1 {
		return math.MaxInt32, 1
	}
	if rsh > 62 {
		return 0, 31
	}
	return int32(q), rsh
}

// requantQ31One is the scalar reference for the pinned semantics above;
// the portable kernels apply it elementwise and the assembly kernels are
// fuzz-tested bit-identical against it.
func requantQ31One(acc int32, corr int64, m0, rsh, zp, lo int32) uint8 {
	return clampU8(int64(MulQ31(int64(acc)+corr, m0, rsh))+int64(zp), lo)
}

// clampU8 saturates a requantized value, already offset by the zero
// point, onto [lo, 255].
func clampU8(y int64, lo int32) uint8 {
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
// — 8 then 4 on AVX2, which loads each group's lanes from r's table, 4 on
// NEON — with per-group parameters hoisted out of the row loop. Remainder
// channels always take the scalar reference.
var requantRowsAsm func(dst []uint8, acc []int32, r *Requant, m, nc4, lda, ldd int)

// RequantQ31Rows requantizes a row-major (m, nc) int32 accumulator (row
// stride lda ≥ nc) into a row-major uint8 destination (row stride
// ldd ≥ nc) through r, whose nc channels are the columns: the epilogue
// of both int8 layers — rows are samples of a linear, output positions
// of an NHWC conv band.
func RequantQ31Rows(dst []uint8, acc []int32, r *Requant, m, lda, ldd int) {
	nc := len(r.m0)
	if m <= 0 {
		panic(fmt.Sprintf("tensor: requantQ31Rows rows %d must be positive", m))
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
	nc4 := nc &^ 3
	if nc4 > 0 {
		if f := requantRowsAsm; f != nil {
			f(dst, acc, r, m, nc4, lda, ldd)
		} else {
			requantRowsGo(dst, acc, r, m, nc4, lda, ldd)
		}
	}
	if nc4 == nc {
		return
	}
	for i := 0; i < m; i++ {
		arow := acc[i*lda:]
		drow := dst[i*ldd:]
		for c := nc4; c < nc; c++ {
			drow[c] = requantQ31One(arow[c], r.corr[c], r.m0[c], r.rsh[c], r.zp, r.lo)
		}
	}
}

// requantRowsGo is the portable mirror of the rows kernel (any traversal
// order is bit-identical: the map is elementwise).
func requantRowsGo(dst []uint8, acc []int32, r *Requant, m, nc4, lda, ldd int) {
	m0, rsh, corr, zp, lo := r.m0[:nc4], r.rsh[:nc4], r.corr[:nc4], r.zp, r.lo
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
	if err := checkRequant(m0, rsh, corr, zp, lo, nc); err != nil {
		panic(err)
	}
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
