package nn

import "repro/internal/tensor"

// Layer is one differentiable stage of a network. Forward caches whatever
// it needs for the next Backward call; layers are therefore not safe for
// concurrent forward passes, matching the single training loop that owns
// them. train selects training-time behaviour (batch-norm statistics,
// dropout-style layers).
type Layer interface {
	// Name identifies the layer in traces and experiment output.
	Name() string
	// Forward computes the layer output for a batch.
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients into Params().Grad.
	Backward(dout *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
}

// Container is implemented by layers built from other layers (Sequential,
// Residual, ConvBNAct); tree walks recurse through it.
type Container interface {
	Layers() []Layer
}

// Coster is implemented by layers that know their per-sample compute cost.
// MACs is the number of multiply-accumulate operations in one forward pass
// for a single sample; the energy model charges forward + 2× backward.
type Coster interface {
	MACs() int64
}

// CollectParams flattens the parameters of a layer list in order.
func CollectParams(layers []Layer) []*Param {
	var ps []*Param
	for _, l := range layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// TotalMACs sums the per-sample MACs of every layer implementing Coster.
func TotalMACs(layers []Layer) int64 {
	var total int64
	for _, l := range layers {
		if c, ok := l.(Coster); ok {
			total += c.MACs()
		}
	}
	return total
}
