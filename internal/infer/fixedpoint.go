package infer

import "math"

// Fixed-point requantization. The float multiplier M = S_x·S_w/S_y that
// maps an int32 accumulator onto the output grid is lowered at compile
// time to a Q31 mantissa and a right shift:
//
//	M ≈ m0 · 2^(−rsh)   with m0 ∈ [2^30, 2^31)
//
// so the hot loop applies it with one 64-bit multiply and one rounding
// shift — integer arithmetic end to end, the deployment property the
// paper's §III quantization scheme (Jacob et al., CVPR 2018) was chosen
// for.

// accMax/accMin saturate the accumulator to the int32 range before the
// Q31 multiply so the 64-bit product cannot overflow (2^31·2^31 = 2^62 <
// 2^63). The bounds are exactly int32 saturation — the pinned semantics
// of the vector requant kernels (tensor/requant.go) — so the scalar path
// here, the portable tensor kernels and the assembly are bit-identical
// everywhere.
// Real accumulators are far smaller; the clamp only matters for
// degenerate channels whose folded bias exploded the accumulator domain,
// and those saturate at the uint8 boundary anyway.
const (
	accMax = int64(math.MaxInt32)
	accMin = int64(math.MinInt32)
)

// lowerMultiplier decomposes a positive real multiplier into (m0, rsh).
// Non-positive multipliers lower to (0, 31): everything requantizes to
// zero.
func lowerMultiplier(m float64) (m0 int32, rsh int32) {
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
	if rsh < 1 { // m ≥ 2^30: saturate (never hit by real grids)
		return math.MaxInt32, 1
	}
	if rsh > 62 { // m < 2^-31: rounds to zero for every int32 acc
		return 0, 31
	}
	return int32(q), rsh
}

// requantize applies a lowered multiplier to an accumulator:
// round(acc · m0 · 2^(−rsh)), rounding half toward +∞, with int32
// saturation on the way in and the way out. This is the scalar mirror of
// tensor.RequantQ31Rows/Transpose (the rounding contract is pinned by
// TestRequantizeRounding and the tensor package's bit-identity fuzz
// suite); the conv/linear epilogues run the vector form, while the
// residual join tabulates it per branch byte at compile time.
func requantize(acc int64, m0 int32, rsh int32) int64 {
	if acc > accMax {
		acc = accMax
	} else if acc < accMin {
		acc = accMin
	}
	r := (acc*int64(m0) + 1<<(uint(rsh)-1)) >> uint(rsh)
	if r > accMax {
		r = accMax
	} else if r < accMin {
		r = accMin
	}
	return r
}

// clampU8 saturates a requantized value (already offset by the output
// zero point) onto [lo, 255].
func clampU8(y int64, lo int32) uint8 {
	if y < int64(lo) {
		y = int64(lo)
	}
	if y > 255 {
		y = 255
	}
	return uint8(y)
}
