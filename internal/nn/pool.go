package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// GlobalAvgPool reduces an NCHW batch to (N, C) by averaging each channel
// plane; the CIFAR backbones in the paper all end with it.
type GlobalAvgPool struct {
	name    string
	inShape []int

	outA arenaTensor
	dxA  arenaTensor
}

// NewGlobalAvgPool constructs the layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("gap %q: %w: input %v", p.name, tensor.ErrShape, x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.inShape = x.Shape()
	out := p.outA.get(n, c)
	plane := h * w
	xd, od := x.Data(), out.Data()
	inv := 1 / float32(plane)
	for i := 0; i < n; i++ {
		for cc := 0; cc < c; cc++ {
			row := xd[(i*c+cc)*plane : (i*c+cc+1)*plane]
			var s float32
			for _, v := range row {
				s += v
			}
			od[i*c+cc] = s * inv
		}
	}
	return out, nil
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if p.inShape == nil {
		return nil, fmt.Errorf("gap %q: backward before forward", p.name)
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	if dout.Rank() != 2 || dout.Dim(0) != n || dout.Dim(1) != c {
		return nil, fmt.Errorf("gap %q: %w: dout %v, want (%d,%d)", p.name, tensor.ErrShape, dout.Shape(), n, c)
	}
	dx := p.dxA.get(p.inShape...)
	plane := h * w
	dd, dxd := dout.Data(), dx.Data()
	inv := 1 / float32(plane)
	for i := 0; i < n; i++ {
		for cc := 0; cc < c; cc++ {
			g := dd[i*c+cc] * inv
			row := dxd[(i*c+cc)*plane : (i*c+cc+1)*plane]
			for j := range row {
				row[j] = g
			}
		}
	}
	p.inShape = nil
	return dx, nil
}

// MaxPool2D is a max pooling layer with square window and stride equal to
// the window size (the common non-overlapping configuration).
type MaxPool2D struct {
	name    string
	k       int
	argmax  []int
	inShape []int
	ready   bool

	outA    arenaTensor
	dxA     arenaTensor
	argmaxA []int
}

// NewMaxPool2D constructs a k×k non-overlapping max pool.
func NewMaxPool2D(name string, k int) (*MaxPool2D, error) {
	if k <= 0 {
		return nil, fmt.Errorf("maxpool %q: %w: window %d", name, tensor.ErrShape, k)
	}
	return &MaxPool2D{name: name, k: k}, nil
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Window returns the pooling window size (stride equals the window).
func (p *MaxPool2D) Window() int { return p.k }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("maxpool %q: %w: input %v", p.name, tensor.ErrShape, x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%p.k != 0 || w%p.k != 0 {
		return nil, fmt.Errorf("maxpool %q: %w: input %dx%d not divisible by window %d", p.name, tensor.ErrShape, h, w, p.k)
	}
	oh, ow := h/p.k, w/p.k
	out := p.outA.get(n, c, oh, ow)
	p.inShape = x.Shape()
	p.argmax = grow(&p.argmaxA, out.Len())
	p.ready = true
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		for cc := 0; cc < c; cc++ {
			base := (i*c + cc) * h * w
			obase := (i*c + cc) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bi := base + oy*p.k*w + ox*p.k
					bv := xd[bi]
					for ky := 0; ky < p.k; ky++ {
						for kx := 0; kx < p.k; kx++ {
							idx := base + (oy*p.k+ky)*w + ox*p.k + kx
							if xd[idx] > bv {
								bv = xd[idx]
								bi = idx
							}
						}
					}
					od[obase+oy*ow+ox] = bv
					p.argmax[obase+oy*ow+ox] = bi
				}
			}
		}
	}
	return out, nil
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if !p.ready {
		return nil, fmt.Errorf("maxpool %q: backward before forward", p.name)
	}
	if dout.Len() != len(p.argmax) {
		return nil, fmt.Errorf("maxpool %q: %w: dout %v", p.name, tensor.ErrShape, dout.Shape())
	}
	dx := p.dxA.get(p.inShape...)
	dx.Zero()
	dxd := dx.Data()
	for i, g := range dout.Data() {
		dxd[p.argmax[i]] += g
	}
	p.ready = false
	return dx, nil
}

// Flatten reshapes (N, C, H, W) to (N, C·H·W).
type Flatten struct {
	name    string
	inShape []int
}

// NewFlatten constructs the layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() < 2 {
		return nil, fmt.Errorf("flatten %q: %w: input %v", f.name, tensor.ErrShape, x.Shape())
	}
	f.inShape = x.Shape()
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if f.inShape == nil {
		return nil, fmt.Errorf("flatten %q: backward before forward", f.name)
	}
	dx, err := dout.Reshape(f.inShape...)
	f.inShape = nil
	return dx, err
}
