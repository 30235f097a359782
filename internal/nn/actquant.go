package nn

import (
	"fmt"
	"math"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// ActQuant quantizes activations with a learnable clipping point, the
// PACT-style scheme §III-B alludes to when it notes that Gavg "applies to
// other parameters that need to be learned during training, e.g. ... the
// clipping point of activation". The forward pass computes
//
//	y = quantize_k( clamp(x, 0, α) )
//
// on a k-bit uniform grid over [0, α]; the backward pass uses the
// straight-through estimator inside the clipping range and routes the
// out-of-range gradient into α (dy/dα = 1 for x ≥ α). α is an nn.Param,
// so the APT controller adjusts the activation bitwidth with the same
// policy it applies to weights.
type ActQuant struct {
	name  string
	alpha *Param // scalar clipping point
	mask  []uint8

	outA  arenaTensor
	dxA   arenaTensor
	maskA []uint8
}

// ActQuant backward mask states.
const (
	actBelow = iota // x < 0: no gradient
	actInside
	actAbove // x > alpha: gradient flows to alpha
)

// NewActQuant constructs the layer with initial clip alpha and bitwidth
// k (use quant.MaxBits to start effectively unquantized).
func NewActQuant(name string, alpha float32, k int) (*ActQuant, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("actquant %q: clip %v must be positive", name, alpha)
	}
	p := NewParam(name+".alpha", tensor.MustFromSlice([]float32{alpha}, 1))
	a := &ActQuant{name: name, alpha: p}
	if err := p.SetBits(k); err != nil {
		return nil, fmt.Errorf("actquant %q: %w", name, err)
	}
	return a, nil
}

// Name implements Layer.
func (a *ActQuant) Name() string { return a.name }

// Params implements Layer: the clipping point is learnable.
func (a *ActQuant) Params() []*Param { return []*Param{a.alpha} }

// Alpha returns the current clipping point.
func (a *ActQuant) Alpha() float32 { return a.alpha.Value.Data()[0] }

// Bits returns the activation bitwidth (the clip parameter's bitwidth
// doubles as the activation grid's, keeping one knob per layer).
func (a *ActQuant) Bits() int { return a.alpha.Bits() }

// Forward implements Layer.
func (a *ActQuant) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	alpha := a.Alpha()
	if alpha <= 0 {
		return nil, fmt.Errorf("actquant %q: clip collapsed to %v", a.name, alpha)
	}
	k := a.Bits()
	eps := quant.Epsilon(0, alpha, k)
	out := a.outA.like(x)
	d := out.Data()
	copy(d, x.Data())
	a.mask = grow(&a.maskA, len(d))
	for i, v := range d {
		switch {
		case v <= 0:
			d[i] = 0
			a.mask[i] = actBelow
		case v >= alpha:
			d[i] = alpha
			a.mask[i] = actAbove
		default:
			a.mask[i] = actInside
			if eps > 0 {
				d[i] = float32(math.Round(float64(v)/float64(eps))) * eps
			}
		}
	}
	return out, nil
}

// Backward implements Layer with the straight-through estimator.
func (a *ActQuant) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if a.mask == nil {
		return nil, fmt.Errorf("actquant %q: backward before forward", a.name)
	}
	if dout.Len() != len(a.mask) {
		return nil, fmt.Errorf("actquant %q: %w: dout %v vs cached %d", a.name, tensor.ErrShape, dout.Shape(), len(a.mask))
	}
	dx := a.dxA.like(dout)
	d := dx.Data()
	copy(d, dout.Data())
	var dAlpha float32
	for i, m := range a.mask {
		switch m {
		case actBelow:
			d[i] = 0
		case actAbove:
			dAlpha += d[i]
			d[i] = 0
		}
	}
	a.alpha.Grad.Data()[0] += dAlpha
	a.mask = nil
	return dx, nil
}
