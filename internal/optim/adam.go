package optim

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Adam implements Kingma & Ba's optimizer. The paper trains APT with
// plain SGD to demonstrate the savings without optimizer tricks, but most
// of Table I's comparison methods (BNN, TTQ, DoReFa, TernGrad) used Adam
// originally; this implementation lets the harness reproduce them with
// their own optimizer and provides the SGD-vs-Adam ablation.
//
// Like SGD, Adam composes the full step first and then routes it through
// the parameter's precision path: fp32, quantized-no-master (Eq. 3
// truncation, APT mode) or fp32-master.
type Adam struct {
	lr      float64
	beta1   float64
	beta2   float64
	eps     float64
	t       int
	m       map[*nn.Param]*tensor.Tensor
	v       map[*nn.Param]*tensor.Tensor
	decayWD float64
}

// NewAdam constructs the optimizer with the canonical defaults when betas
// are zero: beta1 = 0.9, beta2 = 0.999, eps = 1e-8.
func NewAdam(lr, beta1, beta2, weightDecay float64) *Adam {
	if beta1 == 0 {
		beta1 = 0.9
	}
	if beta2 == 0 {
		beta2 = 0.999
	}
	return &Adam{
		lr: lr, beta1: beta1, beta2: beta2, eps: 1e-8,
		m:       make(map[*nn.Param]*tensor.Tensor),
		v:       make(map[*nn.Param]*tensor.Tensor),
		decayWD: weightDecay,
	}
}

// SetLR updates the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Step applies one Adam update to every parameter and zeroes gradients.
func (a *Adam) Step(params []*nn.Param) error {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = tensor.New(p.Value.Shape()...)
			v = tensor.New(p.Value.Shape()...)
			a.m[p] = m
			a.v[p] = v
		}
		ref := p.Value
		if p.Master != nil {
			ref = p.Master
		}
		md, vd, gd, wd := m.Data(), v.Data(), p.Grad.Data(), ref.Data()
		b1, b2 := float32(a.beta1), float32(a.beta2)
		wdcy := float32(a.decayWD)

		step := tensor.New(p.Value.Shape()...)
		sd := step.Data()
		for i := range gd {
			g := gd[i] + wdcy*wd[i]
			md[i] = b1*md[i] + (1-b1)*g
			vd[i] = b2*vd[i] + (1-b2)*g*g
			mhat := float64(md[i]) / bc1
			vhat := float64(vd[i]) / bc2
			sd[i] = float32(a.lr * mhat / (math.Sqrt(vhat) + a.eps))
		}

		switch {
		case p.Q == nil || p.Q.FullPrecision():
			for i := range wd {
				wd[i] -= sd[i]
			}
			p.Underflowed = 0
		case p.Master != nil:
			for i := range wd {
				wd[i] -= sd[i]
			}
			if err := p.Value.CopyFrom(p.Master); err != nil {
				return fmt.Errorf("optim: adam %s: %w", p.Name, err)
			}
			p.Q.Quantize(p.Value)
			p.Underflowed = 0
		default:
			uf, err := p.Q.UpdateInPlace(p.Value, step)
			if err != nil {
				return fmt.Errorf("optim: adam %s: %w", p.Name, err)
			}
			p.Underflowed = uf
			p.Q.Refresh(p.Value)
		}
		p.ZeroGrad()
	}
	return nil
}
