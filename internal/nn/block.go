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

// BackwardParams is Backward for a trainer, which has no use for the
// network input's gradient: the first layer runs a backward that forms its
// parameter gradients alone when it has one (a Conv2D, or a node or chain
// starting with one), else Backward with the result dropped.
func (s *Sequential) BackwardParams(dout *tensor.Tensor) error {
	var err error
	for i := len(s.layers) - 1; i > 0 && err == nil; i-- {
		dout, err = s.layers[i].Backward(dout)
	}
	if err == nil && len(s.layers) > 0 {
		switch l := s.layers[0].(type) {
		case *Conv2D:
			_, err = l.backward(dout, tensor.Skip{}, false)
		case interface{ BackwardParams(*tensor.Tensor) error }:
			err = l.BackwardParams(dout)
		default:
			_, err = l.Backward(dout)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return nil
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
	if n.fused() == nil {
		return n.Sequential.Forward(x, train)
	}
	return n.forward(x, nil, tensor.Rect{}, train)
}

// Backward implements Layer.
func (n *ConvBNAct) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if n.fused() == nil {
		return n.Sequential.Backward(dout)
	}
	return n.backward(dout, dout, tensor.Rect{}, tensor.Skip{}, true)
}

// BackwardParams is Sequential.BackwardParams for a network whose first
// node is n.
func (n *ConvBNAct) BackwardParams(dout *tensor.Tensor) error {
	if n.fused() == nil {
		return n.Sequential.BackwardParams(dout)
	}
	_, err := n.backward(dout, dout, tensor.Rect{}, tensor.Skip{}, false)
	return err
}

// forward and backward run a node with a batch-norm and its ReLU or no
// activation, with a residual block's hooks: without a ReLU the affine
// pass adds add (nil: none) and applies r, and the gradient passes mask
// dout by y under r; skip joins the input gradient of the op, a Conv2D
// unless skip is zero; without dx a Conv2D op forms no input gradient.
func (n *ConvBNAct) forward(x, add *tensor.Tensor, r tensor.Rect, train bool) (*tensor.Tensor, error) {
	out, a := &n.bn.outA, n.fused()
	if a != nil {
		out, r = &a.outA, tensor.Rectifier(a.cap)
	}
	y, err := n.Op().Forward(x, train)
	if err == nil && add != nil && !add.SameShape(y) {
		err = fmt.Errorf("%w: shortcut %v, main branch %v", tensor.ErrShape, add.Shape(), y.Shape())
	}
	if err == nil {
		y, err = n.bn.forward(out, y, add, train, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", n.name, err)
	}
	if a != nil {
		a.y = y
	}
	return y, nil
}

func (n *ConvBNAct) backward(dout, y *tensor.Tensor, r tensor.Rect, skip tensor.Skip, dx bool) (*tensor.Tensor, error) {
	if a := n.fused(); a != nil {
		if a.y == nil {
			return nil, fmt.Errorf("%s: relu %q: backward before forward", n.name, a.name)
		}
		y, r, a.y = a.y, tensor.Rectifier(a.cap), nil
	}
	d, err := n.bn.backward(dout, y, r)
	if c, ok := n.Op().(*Conv2D); ok && err == nil {
		d, err = c.backward(d, skip, dx)
	} else if err == nil {
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
// directly). In the models' blocks the tail runs inside the nodes' passes
// (tailNodes): the shortcut runs first, the last node's affine pass adds
// its output and rectifies; backward, its and the shortcut's batch-norm
// mask dout by the block output, and the first node's conv adds the skip
// gradient to dx as it writes it (tensor.Skip) — the bytes of the
// branches run alone, then summed and rectified. Any other block runs the
// add and the activation as one pass forward and sums the branch
// gradients in one pass backward, in its own arenas.
type Residual struct {
	name     string
	main     Layer
	shortcut Layer   // nil = identity
	layers   []Layer // main, then shortcut when present
	withReLU bool
	rect     tensor.Rect    // the output ReLU as a batch-norm pass takes it
	y        *tensor.Tensor // rectified output of the last Forward, nil once Backward consumed it

	nodes []Layer    // main's nodes when the tail runs inside them, else nil
	short *ConvBNAct // the shortcut node of such a block, nil for the identity

	outA  arenaTensor
	doutA arenaTensor
	dxA   arenaTensor
}

// NewResidual builds a residual block with an output ReLU.
func NewResidual(name string, main, shortcut Layer) *Residual {
	r := NewLinearResidual(name, main, shortcut)
	r.withReLU, r.rect = true, tensor.Rectifier(0)
	return r
}

// NewLinearResidual builds a residual block without an output activation.
func NewLinearResidual(name string, main, shortcut Layer) *Residual {
	layers := []Layer{main}
	if shortcut != nil {
		layers = append(layers, shortcut)
	}
	r := &Residual{name: name, main: main, shortcut: shortcut, layers: layers}
	r.nodes, r.short = tailNodes(main, shortcut)
	return r
}

// tailNodes returns main's nodes and the shortcut node when the block's
// tail can run inside them, else nil: main is a Sequential of ConvBNAct
// nodes, the last with a batch-norm and no activation, the first a conv
// with a batch-norm and no activation or its fused ReLU; the shortcut is
// the identity or a node like main's last.
func tailNodes(main, shortcut Layer) ([]Layer, *ConvBNAct) {
	seq, _ := main.(*Sequential)
	if seq == nil || len(seq.layers) < 2 {
		return nil, nil
	}
	head, _ := seq.layers[0].(*ConvBNAct)
	tail, _ := seq.layers[len(seq.layers)-1].(*ConvBNAct)
	short, _ := shortcut.(*ConvBNAct)
	plain := func(n *ConvBNAct) bool { return n != nil && n.bn != nil && n.act == nil }
	if head == nil || !plain(head) && head.fused() == nil || !plain(tail) || shortcut != nil && !plain(short) {
		return nil, nil
	}
	if _, ok := head.Op().(*Conv2D); !ok {
		return nil, nil
	}
	return seq.layers, short
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
	sy, err := x, error(nil)
	if r.shortcut != nil {
		sy, err = r.shortcut.Forward(x, train)
	}
	h := x
	if last := len(r.nodes) - 1; last > 0 {
		for _, l := range r.nodes[:last] {
			if err == nil {
				h, err = l.Forward(h, train)
			}
		}
		if err == nil {
			h, err = r.nodes[last].(*ConvBNAct).forward(h, sy, r.rect, train)
		}
	} else if err == nil {
		if h, err = r.main.Forward(x, train); err == nil && !sy.SameShape(h) {
			err = fmt.Errorf("%w: shortcut %v, main branch %v", tensor.ErrShape, sy.Shape(), h.Shape())
		}
		if err == nil {
			out := r.outA.like(h)
			addInto(out.Data(), h.Data(), sy.Data(), r.withReLU)
			h = out
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	if r.withReLU {
		r.y = h
	}
	return h, nil
}

// Backward implements Layer.
func (r *Residual) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	y := dout // the block output, read only under the ReLU
	if r.withReLU {
		if y = r.y; y == nil {
			return nil, fmt.Errorf("%s: backward before forward", r.name)
		}
		if dout.Len() != y.Len() {
			return nil, fmt.Errorf("%s: %w: dout %v", r.name, tensor.ErrShape, dout.Shape())
		}
		r.y = nil
	}
	if r.nodes == nil {
		return r.backwardPasses(dout, y)
	}
	skip, err := tensor.Skip{G: dout.Data(), Y: y.Data(), R: r.rect}, error(nil)
	if r.short != nil {
		var ds *tensor.Tensor
		if ds, err = r.short.backward(dout, y, r.rect, tensor.Skip{}, true); err == nil {
			skip = tensor.Skip{G: ds.Data()}
		}
	}
	d, last := dout, len(r.nodes)-1
	for i := last; i >= 0 && err == nil; i-- {
		switch n := r.nodes[i]; i {
		case last:
			d, err = n.(*ConvBNAct).backward(d, y, r.rect, tensor.Skip{}, true)
		case 0:
			d, err = n.(*ConvBNAct).backward(d, d, tensor.Rect{}, skip, true)
		default:
			d, err = n.Backward(d)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	return d, nil
}

// backwardPasses is Backward of a block whose tail runs as its own
// passes, y as in Backward.
func (r *Residual) backwardPasses(dout, y *tensor.Tensor) (*tensor.Tensor, error) {
	d := dout
	if r.withReLU {
		d = r.doutA.like(dout)
		rectifyGrad(d.Data(), dout.Data(), y.Data(), 0)
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
