package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW batches, a caller of the
// band-resident float conv driver (tensor.ConvF32ForwardInto /
// ConvF32BackwardInto): no patch matrix of the batch exists in either
// direction. Forward keeps the input by reference — the arena contract
// keeps a producer's output alive until the producer's own Backward, which
// runs after this layer's — and Backward re-stages each sample band from
// it. The layer owns the output and input-gradient arenas plus the
// driver's band-sized scratch, all allocated at the first step and reused,
// so steady-state training allocates nothing on this path. The input
// spatial size is fixed at construction (CIFAR-style pipelines have static
// geometry), which lets the layer report exact MAC counts to the energy
// model.
type Conv2D struct {
	name   string
	geom   tensor.ConvGeom
	outC   int
	weight *Param // (outC, inC, KH, KW), consumed as (outC, inC*KH*KW)
	bias   *Param // (outC), nil when disabled
	plan   *tensor.ConvPlanF32

	x    *tensor.Tensor        // input of the last Forward, nil once Backward consumed it
	out  arenaTensor           // (N, outC, OH, OW)
	dx   arenaTensor           // (N, inC, InH, InW)
	work tensor.ConvScratchF32 // per-lane band tiles and per-band gradient partials
}

// Conv2DConfig configures NewConv2D.
type Conv2DConfig struct {
	Name string
	In   tensor.ConvGeom // InC/InH/InW/KH/KW/Stride/Pad
	OutC int
	Bias bool
	RNG  *tensor.RNG
}

// NewConv2D constructs a convolution with He-normal initialized weights.
func NewConv2D(cfg Conv2DConfig) (*Conv2D, error) {
	g := cfg.In
	plan, err := tensor.NewConvPlanF32(g, cfg.OutC)
	if err != nil {
		return nil, fmt.Errorf("conv2d %q: %w", cfg.Name, err)
	}
	w := tensor.New(cfg.OutC, g.InC, g.KH, g.KW)
	w.FillHeNormal(cfg.RNG, g.InC*g.KH*g.KW)
	c := &Conv2D{name: cfg.Name, geom: g, outC: cfg.OutC, weight: NewParam(cfg.Name+".weight", w), plan: plan}
	if cfg.Bias {
		c.bias = NewParam(cfg.Name+".bias", tensor.New(cfg.OutC))
	}
	return c, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.bias == nil {
		return []*Param{c.weight}
	}
	return []*Param{c.weight, c.bias}
}

// MACs implements Coster: outC · OH · OW · inC · KH · KW per sample.
func (c *Conv2D) MACs() int64 {
	oh, ow := c.geom.OutHW()
	return int64(c.outC) * int64(oh) * int64(ow) *
		int64(c.geom.InC) * int64(c.geom.KH) * int64(c.geom.KW)
}

// Geom exposes the convolution geometry (used by model builders).
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// Forward implements Layer. The returned tensor is owned by the layer and
// is overwritten by the next Forward call (see the arena contract).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != c.geom.InC || x.Dim(2) != c.geom.InH || x.Dim(3) != c.geom.InW {
		return nil, fmt.Errorf("conv2d %q: %w: input %v, want (N,%d,%d,%d)",
			c.name, tensor.ErrShape, x.Shape(), c.geom.InC, c.geom.InH, c.geom.InW)
	}
	oh, ow := c.geom.OutHW()
	out := c.out.get(x.Dim(0), c.outC, oh, ow)
	var bias []float32
	if c.bias != nil {
		bias = c.bias.Value.Data()
	}
	if err := tensor.ConvF32ForwardInto(out.Data(), x.Data(), x.Dim(0), c.weight.Value.Data(), bias, c.plan, &c.work); err != nil {
		return nil, fmt.Errorf("conv2d %q: %w", c.name, err)
	}
	c.x = x
	return out, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if c.x == nil {
		return nil, fmt.Errorf("conv2d %q: backward before forward", c.name)
	}
	n := c.x.Dim(0)
	oh, ow := c.geom.OutHW()
	if dout.Rank() != 4 || dout.Dim(0) != n || dout.Dim(1) != c.outC || dout.Dim(2) != oh || dout.Dim(3) != ow {
		return nil, fmt.Errorf("conv2d %q: %w: dout %v, want (%d,%d,%d,%d)",
			c.name, tensor.ErrShape, dout.Shape(), n, c.outC, oh, ow)
	}
	dx := c.dx.get(n, c.geom.InC, c.geom.InH, c.geom.InW)
	var gb []float32
	if c.bias != nil {
		gb = c.bias.Grad.Data()
	}
	if err := tensor.ConvF32BackwardInto(dx.Data(), c.weight.Grad.Data(), gb, c.x.Data(), dout.Data(), n,
		c.weight.Value.Data(), c.plan, &c.work); err != nil {
		return nil, fmt.Errorf("conv2d %q: %w", c.name, err)
	}
	c.x = nil
	return dx, nil
}
