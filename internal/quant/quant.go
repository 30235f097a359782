// Package quant implements the affine quantization scheme the paper adopts
// from Jacob et al. (CVPR 2018) together with the quantization-underflow
// machinery that Adaptive Precision Training is built on:
//
//   - the affine map r = S·(q − Z) with a per-tensor scale S and zero
//     point Z (§III);
//   - the minimum representable update ε_i = (max Wᵢ − min Wᵢ)/(2^k − 1)
//     (Eq. 2);
//   - the quantized weight-update rule w := w − ⌊lr·g/ε⌋·ε (Eq. 3), whose
//     truncation drops any update smaller than ε — the underflow APT
//     detects and corrects;
//   - the underflow metric Gavg = (1/N)·Σ|g/ε| (Eq. 4).
//
// Quantization is simulated on the float32 grid: a quantized tensor holds
// float32 values that always lie on the affine grid of its current state.
// This is numerically identical to integer storage for every quantity the
// paper studies while keeping the tensor engine uniform, and it is how the
// reference TensorFlow/PyTorch "fake quant" training paths work as well.
package quant

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Bitwidth limits from Algorithm 1: precision never leaves [MinBits,
// MaxBits]. At MaxBits (32) a tensor is treated as full precision.
const (
	MinBits = 2
	MaxBits = 32
)

// ErrBits is returned for bitwidths outside [MinBits, MaxBits].
var ErrBits = errors.New("quant: bitwidth out of range")

// State carries the affine quantization parameters of one tensor: the
// bitwidth k and the grid derived from the tensor's live value range. A nil
// *State means "full precision fp32".
type State struct {
	Bits int     // k: number of bits, in [MinBits, MaxBits]
	Min  float32 // live minimum of the tensor when the grid was refreshed
	Max  float32 // live maximum of the tensor when the grid was refreshed
	Eps  float32 // ε = (Max−Min)/(2^k −1); 0 means full precision
}

// NewState returns a state with bitwidth k and an empty grid; call Refresh
// before use. An error is returned for k outside [MinBits, MaxBits].
func NewState(k int) (*State, error) {
	if k < MinBits || k > MaxBits {
		return nil, fmt.Errorf("%w: %d not in [%d, %d]", ErrBits, k, MinBits, MaxBits)
	}
	return &State{Bits: k}, nil
}

// FullPrecision reports whether the state behaves as fp32 (k == MaxBits or
// a degenerate grid).
func (s *State) FullPrecision() bool {
	return s == nil || s.Bits >= MaxBits
}

// Epsilon computes Eq. 2 for an explicit range and bitwidth: the minimum
// resolution of a k-bit tensor spanning [min, max]. A degenerate range
// (max <= min) yields 0, which callers must treat as "no grid yet".
func Epsilon(min, max float32, k int) float32 {
	if k >= MaxBits {
		return 0
	}
	span := float64(max) - float64(min)
	if span <= 0 {
		return 0
	}
	// k < MaxBits here, so the shift fits in int64; the integer expression
	// replaces a math.Pow call that ran on every grid refresh of every
	// layer.
	levels := float64(int64(1)<<uint(k) - 1)
	return float32(span / levels)
}

// Refresh recomputes the grid (Min, Max, Eps) from the live values of t.
// The paper re-derives S and Z from the tensor range; we do the same every
// time precision changes or the range drifts.
func (s *State) Refresh(t *tensor.Tensor) {
	min, max := t.MinMax()
	s.Min, s.Max = min, max
	s.Eps = Epsilon(min, max, s.Bits)
}

// Scale returns the affine scale S (identical to Eps for the per-tensor
// min/max scheme) and the zero point Z such that r = S(q − Z) maps
// q ∈ [0, 2^k−1] onto [Min, Max].
func (s *State) Scale() (S float32, Z int32) {
	if s.FullPrecision() || s.Eps == 0 {
		return 1, 0
	}
	return s.Eps, int32(math.Round(float64(-s.Min) / float64(s.Eps)))
}

// SnapInPlace projects every element of t onto the current grid:
// r ↦ Min + round((r−Min)/ε)·ε, clamped to [Min, Max]. With a degenerate
// or full-precision grid it is a no-op.
//
// The snap is an exact projection: the grid arithmetic runs in float64 and
// the two endpoint levels map to Min and Max bit-exactly, so re-deriving
// the grid from a snapped tensor (Refresh) reproduces the same (Min, Max,
// Eps) and a second snap is the identity. Codecs and the broadcast packer
// rely on this idempotence.
func (s *State) SnapInPlace(t *tensor.Tensor) {
	if s.FullPrecision() || s.Eps == 0 {
		return
	}
	lo, hi := float64(s.Min), float64(s.Max)
	levels := float64(int64(1)<<uint(s.Bits) - 1)
	eps := (hi - lo) / levels
	d := t.Data()
	for i, v := range d {
		q := math.Round((float64(v) - lo) / eps)
		switch {
		case q <= 0:
			d[i] = s.Min
		case q >= levels:
			d[i] = s.Max
		default:
			d[i] = float32(lo + q*eps)
		}
	}
}

// Quantize refreshes the grid from t's live range and snaps t onto it.
// This is the entry point used when a layer's bitwidth changes.
func (s *State) Quantize(t *tensor.Tensor) {
	s.Refresh(t)
	s.SnapInPlace(t)
}

// UpdateInPlace applies the paper's Eq. 3 to a weight tensor: each element
// moves by trunc(update/ε)·ε, so any |update| < ε is silently dropped —
// quantization underflow. update is the full already-composed step
// (learning rate, momentum and weight decay folded in by the optimizer),
// applied as w := w − step. After the update the values are clamped onto
// the affine range; the range itself is re-derived lazily by the caller
// via Refresh (mirroring the paper, which recomputes S and Z per tensor).
//
// Note the consequence of the clamp in master-less mode: a k-bit tensor
// cannot represent values off its grid, so the live range is
// non-expanding — Refresh can shrink it but never grow it past the
// initial span. This is the faithful simulation of real k-bit integer
// storage; baselines that need unbounded fp32 drift use the master-copy
// mode, where the clamp never applies.
//
// With a full-precision state the update degenerates to plain SGD.
// It returns the number of elements whose update underflowed to zero.
func (s *State) UpdateInPlace(w, update *tensor.Tensor) (underflowed int, err error) {
	if !w.SameShape(update) {
		return 0, fmt.Errorf("quant: update shape %v does not match weight %v", update.Shape(), w.Shape())
	}
	wd, ud := w.Data(), update.Data()
	if s.FullPrecision() || s.Eps == 0 {
		for i := range wd {
			wd[i] -= ud[i]
		}
		return 0, nil
	}
	eps := float64(s.Eps)
	for i := range wd {
		steps := math.Trunc(float64(ud[i]) / eps) // Eq. 3: ⌊lr·g/ε⌋, toward zero
		if steps == 0 {
			if ud[i] != 0 {
				underflowed++
			}
			continue
		}
		v := wd[i] - float32(steps*eps)
		// Clamp onto the affine range, matching SnapInPlace: Min and Max
		// sit on the grid, so a clamped element stays on it.
		if v < s.Min {
			v = s.Min
		} else if v > s.Max {
			v = s.Max
		}
		wd[i] = v
	}
	return underflowed, nil
}

// Gavg computes Eq. 4 for a gradient tensor under resolution eps: the mean
// of |g/ε| over all elements. It returns +Inf conceptually when eps is 0
// (full precision never underflows); we report a large sentinel instead so
// downstream arithmetic (moving averages, comparisons against thresholds)
// stays finite.
func Gavg(g *tensor.Tensor, eps float32) float64 {
	if g.Len() == 0 {
		return 0
	}
	if eps <= 0 {
		return GavgFullPrecision
	}
	return g.AbsMean() / float64(eps)
}

// GavgFullPrecision is the sentinel Gavg value reported for full-precision
// tensors (ε → 0 ⇒ Gavg → ∞). It is far above any plausible Tmax.
const GavgFullPrecision = 1e12

// UnderflowFraction reports the fraction of elements of g whose scaled
// update |g/ε| falls below 1, i.e. would be dropped by Eq. 3 at unit
// learning rate. This is the alternative metric used by the ablation
// benchmarks.
func UnderflowFraction(g *tensor.Tensor, eps float32) float64 {
	n := g.Len()
	if n == 0 || eps <= 0 {
		return 0
	}
	cnt := 0
	e := float64(eps)
	for _, v := range g.Data() {
		if math.Abs(float64(v)) < e {
			cnt++
		}
	}
	return float64(cnt) / float64(n)
}

// Ternarize applies TernGrad's stochastic ternarization to g in place:
// each element becomes sign(g)·s·b with s = max|g| and b ~ Bernoulli(|g|/s)
// drawn from rng, an unbiased estimate of g on a three-level code. An
// all-zero g is left as it is and draws nothing.
func Ternarize(g *tensor.Tensor, rng *tensor.RNG) {
	d := g.Data()
	var s float64
	for _, v := range d {
		if a := math.Abs(float64(v)); a > s {
			s = a
		}
	}
	if s == 0 {
		return
	}
	for i, v := range d {
		switch {
		case rng.Float64() >= math.Abs(float64(v))/s:
			d[i] = 0
		case v > 0:
			d[i] = float32(s)
		default:
			d[i] = -float32(s)
		}
	}
}

// SizeBits returns the storage cost, in bits, of n parameters held at
// bitwidth k (k = 32 for fp32).
func SizeBits(n int, k int) int64 {
	return int64(n) * int64(k)
}
