package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Sequential chains layers, threading forward activations and backward
// gradients through them in order.
type Sequential struct {
	name   string
	layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Layers returns the contained layers in order.
func (s *Sequential) Layers() []Layer { return s.layers }

// Params implements Layer.
func (s *Sequential) Params() []*Param { return CollectParams(s.layers) }

// MACs implements Coster.
func (s *Sequential) MACs() int64 { return TotalMACs(s.layers) }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	var err error
	for _, l := range s.layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return x, nil
}

// Backward implements Layer.
func (s *Sequential) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(s.layers) - 1; i >= 0; i-- {
		dout, err = s.layers[i].Backward(dout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return dout, nil
}

// Residual computes relu(main(x) + shortcut(x)); a nil shortcut is the
// identity. It is the basic block of the CIFAR ResNets. When withReLU is
// false the block omits the output activation (used by MobileNetV2's
// linear bottlenecks, where the skip connection adds projection outputs
// directly). The add and the activation are one pass forward, and the two
// branch gradients are summed in one pass backward.
type Residual struct {
	name     string
	main     Layer
	shortcut Layer // nil = identity
	withReLU bool
	y        *tensor.Tensor // rectified output of the last Forward, nil once Backward consumed it

	outA  arenaTensor
	doutA arenaTensor
	dxA   arenaTensor
}

// NewResidual builds a residual block with an output ReLU.
func NewResidual(name string, main, shortcut Layer) *Residual {
	return &Residual{name: name, main: main, shortcut: shortcut, withReLU: true}
}

// NewLinearResidual builds a residual block without an output activation.
func NewLinearResidual(name string, main, shortcut Layer) *Residual {
	return &Residual{name: name, main: main, shortcut: shortcut}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.main.Params()
	if r.shortcut != nil {
		ps = append(ps, r.shortcut.Params()...)
	}
	return ps
}

// Main returns the block's main branch.
func (r *Residual) Main() Layer { return r.main }

// Shortcut returns the block's shortcut branch, nil for identity.
func (r *Residual) Shortcut() Layer { return r.shortcut }

// WithReLU reports whether the block applies an output ReLU after the
// add (false for MobileNetV2-style linear bottlenecks).
func (r *Residual) WithReLU() bool { return r.withReLU }

// Inner returns the block's constituent layers (main branch, then the
// shortcut when present) so cost accounting can recurse to per-layer
// bitwidths.
func (r *Residual) Inner() []Layer {
	if r.shortcut == nil {
		return []Layer{r.main}
	}
	return []Layer{r.main, r.shortcut}
}

// MACs implements Coster.
func (r *Residual) MACs() int64 {
	var total int64
	if c, ok := r.main.(Coster); ok {
		total += c.MACs()
	}
	if r.shortcut != nil {
		if c, ok := r.shortcut.(Coster); ok {
			total += c.MACs()
		}
	}
	return total
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	my, err := r.main.Forward(x, train)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	sy := x
	if r.shortcut != nil {
		sy, err = r.shortcut.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
	}
	if !sy.SameShape(my) {
		return nil, fmt.Errorf("%s: %w: shortcut %v, main branch %v", r.name, tensor.ErrShape, sy.Shape(), my.Shape())
	}
	out := r.outA.like(my)
	addInto(out.Data(), my.Data(), sy.Data(), r.withReLU)
	if r.withReLU {
		r.y = out
	}
	return out, nil
}

// Backward implements Layer.
func (r *Residual) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	d := dout
	if r.withReLU {
		if r.y == nil {
			return nil, fmt.Errorf("%s: backward before forward", r.name)
		}
		if dout.Len() != r.y.Len() {
			return nil, fmt.Errorf("%s: %w: dout %v", r.name, tensor.ErrShape, dout.Shape())
		}
		d = r.doutA.like(dout)
		rectifyGrad(d.Data(), dout.Data(), r.y.Data(), 0)
		r.y = nil
	}
	dmain, err := r.main.Backward(d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	dshort := d
	if r.shortcut != nil {
		dshort, err = r.shortcut.Backward(d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
	}
	if !dshort.SameShape(dmain) {
		return nil, fmt.Errorf("%s: %w: shortcut gradient %v, main branch %v", r.name, tensor.ErrShape, dshort.Shape(), dmain.Shape())
	}
	dx := r.dxA.like(dmain)
	addInto(dx.Data(), dmain.Data(), dshort.Data(), false)
	return dx, nil
}
