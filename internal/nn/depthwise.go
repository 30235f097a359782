package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// DepthwiseConv2D convolves each input channel with its own k×k filter
// (groups == channels), the building block of MobileNetV2's inverted
// residuals.
type DepthwiseConv2D struct {
	name    string
	geom    tensor.ConvGeom // InC = channels; KH = KW = k
	weight  *Param          // (C, KH, KW)
	x       *tensor.Tensor
	inShape []int

	outA arenaTensor // (N, C, OH, OW)
	dxA  arenaTensor // (N, C, InH, InW)
	dws  []float32   // per-(sample, channel) weight-grad slots
}

// NewDepthwiseConv2D constructs a depthwise convolution.
func NewDepthwiseConv2D(name string, g tensor.ConvGeom, rng *tensor.RNG) (*DepthwiseConv2D, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dwconv %q: %w", name, err)
	}
	w := tensor.New(g.InC, g.KH, g.KW)
	w.FillHeNormal(rng, g.KH*g.KW)
	return &DepthwiseConv2D{name: name, geom: g, weight: NewParam(name+".weight", w)}, nil
}

// Name implements Layer.
func (d *DepthwiseConv2D) Name() string { return d.name }

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.weight} }

// MACs implements Coster: C · OH · OW · KH · KW per sample.
func (d *DepthwiseConv2D) MACs() int64 {
	oh, ow := d.geom.OutHW()
	return int64(d.geom.InC) * int64(oh) * int64(ow) * int64(d.geom.KH) * int64(d.geom.KW)
}

// Forward implements Layer.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	g := d.geom
	if x.Rank() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		return nil, fmt.Errorf("dwconv %q: %w: input %v, want (N,%d,%d,%d)", d.name, tensor.ErrShape, x.Shape(), g.InC, g.InH, g.InW)
	}
	n := x.Dim(0)
	oh, ow := g.OutHW()
	out := d.outA.get(n, g.InC, oh, ow)
	d.x = x
	d.inShape = x.Shape()
	xd, od, wd := x.Data(), out.Data(), d.weight.Value.Data()
	tensor.ParallelFor(n*g.InC, func(nc int) {
		c := nc % g.InC
		src := xd[nc*g.InH*g.InW : (nc+1)*g.InH*g.InW]
		dst := od[nc*oh*ow : (nc+1)*oh*ow]
		ker := wd[c*g.KH*g.KW : (c+1)*g.KH*g.KW]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						s += src[iy*g.InW+ix] * ker[ky*g.KW+kx]
					}
				}
				dst[oy*ow+ox] = s
			}
		}
	})
	return out, nil
}

// Backward implements Layer.
func (d *DepthwiseConv2D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if d.x == nil {
		return nil, fmt.Errorf("dwconv %q: backward before forward", d.name)
	}
	g := d.geom
	n := d.x.Dim(0)
	oh, ow := g.OutHW()
	if dout.Rank() != 4 || dout.Dim(0) != n || dout.Dim(1) != g.InC || dout.Dim(2) != oh || dout.Dim(3) != ow {
		return nil, fmt.Errorf("dwconv %q: %w: dout %v", d.name, tensor.ErrShape, dout.Shape())
	}
	dx := d.dxA.get(d.inShape...)
	dx.Zero()
	xd, dd, dxd := d.x.Data(), dout.Data(), dx.Data()
	wd := d.weight.Value.Data()
	// Per-(sample, channel) weight-grad slots in one flat scratch buffer,
	// reduced serially afterwards to keep the parallel section race-free.
	kk := g.KH * g.KW
	dws := grow(&d.dws, n*g.InC*kk)
	tensor.ParallelFor(n*g.InC, func(nc int) {
		c := nc % g.InC
		src := xd[nc*g.InH*g.InW : (nc+1)*g.InH*g.InW]
		dsrc := dd[nc*oh*ow : (nc+1)*oh*ow]
		ddst := dxd[nc*g.InH*g.InW : (nc+1)*g.InH*g.InW]
		ker := wd[c*g.KH*g.KW : (c+1)*g.KH*g.KW]
		dw := dws[nc*kk : (nc+1)*kk]
		for j := range dw {
			dw[j] = 0
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gv := dsrc[oy*ow+ox]
				if gv == 0 {
					continue
				}
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						dw[ky*g.KW+kx] += gv * src[iy*g.InW+ix]
						ddst[iy*g.InW+ix] += gv * ker[ky*g.KW+kx]
					}
				}
			}
		}
	})
	gw := d.weight.Grad.Data()
	for nc := 0; nc < n*g.InC; nc++ {
		c := nc % g.InC
		off := c * kk
		dw := dws[nc*kk : (nc+1)*kk]
		for j, v := range dw {
			gw[off+j] += v
		}
	}
	d.x = nil
	return dx, nil
}
