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

// ConvBNAct is one node of a network: an op (Conv2D, DepthwiseConv2D or
// Linear), optionally followed by a batch-norm and an activation — the
// unit a layer's precision, energy row and int8 lowering belong to. It
// runs its children as a Sequential under the node's name; the children
// keep their own names, so parameter and batch-norm names do not depend
// on the grouping. A node with a batch-norm and a ReLU (or ReLU6) runs
// the rectifier inside the batch-norm's passes instead: the affine pass
// writes the rectified output into the ReLU's output arena, and the
// backward masks dout by that output inside the gradient passes — the
// same bytes as the chain, with no rectifier pass and without the
// batch-norm's output and the ReLU's gradient arenas.
type ConvBNAct struct {
	Sequential
	bn  *BatchNorm2D
	act Layer
}

// NewConvBNAct builds a node; bn and act may be nil.
func NewConvBNAct(name string, op Layer, bn *BatchNorm2D, act Layer) *ConvBNAct {
	layers := []Layer{op}
	if bn != nil {
		layers = append(layers, bn)
	}
	if act != nil {
		layers = append(layers, act)
	}
	return &ConvBNAct{Sequential: Sequential{name: name, layers: layers}, bn: bn, act: act}
}

// Op returns the node's conv or linear layer.
func (n *ConvBNAct) Op() Layer { return n.layers[0] }

// BN returns the node's batch-norm, nil when it has none.
func (n *ConvBNAct) BN() *BatchNorm2D { return n.bn }

// Act returns the node's activation, nil when it has none.
func (n *ConvBNAct) Act() Layer { return n.act }

// fused returns the ReLU the node's batch-norm runs, nil when it runs the
// chain.
func (n *ConvBNAct) fused() *ReLU {
	if r, ok := n.act.(*ReLU); ok && n.bn != nil {
		return r
	}
	return nil
}

// Forward implements Layer.
func (n *ConvBNAct) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	r := n.fused()
	if r == nil {
		return n.Sequential.Forward(x, train)
	}
	y, err := n.Op().Forward(x, train)
	if err == nil {
		y, err = n.bn.forward(&r.outA, y, train, tensor.Rectifier(r.cap))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", n.name, err)
	}
	r.y = y
	return y, nil
}

// Backward implements Layer.
func (n *ConvBNAct) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	r := n.fused()
	if r == nil {
		return n.Sequential.Backward(dout)
	}
	if r.y == nil {
		return nil, fmt.Errorf("%s: relu %q: backward before forward", n.name, r.name)
	}
	d, err := n.bn.backward(dout, r.y, tensor.Rectifier(r.cap))
	r.y = nil
	if err == nil {
		d, err = n.Op().Backward(d)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", n.name, err)
	}
	return d, nil
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
	shortcut Layer   // nil = identity
	layers   []Layer // main, then shortcut when present
	withReLU bool
	y        *tensor.Tensor // rectified output of the last Forward, nil once Backward consumed it

	outA  arenaTensor
	doutA arenaTensor
	dxA   arenaTensor
}

// NewResidual builds a residual block with an output ReLU.
func NewResidual(name string, main, shortcut Layer) *Residual {
	r := NewLinearResidual(name, main, shortcut)
	r.withReLU = true
	return r
}

// NewLinearResidual builds a residual block without an output activation.
func NewLinearResidual(name string, main, shortcut Layer) *Residual {
	layers := []Layer{main}
	if shortcut != nil {
		layers = append(layers, shortcut)
	}
	return &Residual{name: name, main: main, shortcut: shortcut, layers: layers}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param { return CollectParams(r.layers) }

// Main returns the block's main branch.
func (r *Residual) Main() Layer { return r.main }

// Shortcut returns the block's shortcut branch, nil for identity.
func (r *Residual) Shortcut() Layer { return r.shortcut }

// WithReLU reports whether the block applies an output ReLU after the
// add (false for MobileNetV2-style linear bottlenecks).
func (r *Residual) WithReLU() bool { return r.withReLU }

// Layers returns the block's branches: the main branch, then the shortcut
// when present.
func (r *Residual) Layers() []Layer { return r.layers }

// MACs implements Coster.
func (r *Residual) MACs() int64 { return TotalMACs(r.layers) }

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
