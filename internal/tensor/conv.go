package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution: input spatial size,
// kernel, stride and symmetric zero padding.
type ConvGeom struct {
	InC, InH, InW int // input channels / height / width
	KH, KW        int // kernel height / width
	Stride        int
	Pad           int
}

// OutHW returns the spatial output size of the convolution.
func (g ConvGeom) OutHW() (int, int) {
	oh := (g.InH+2*g.Pad-g.KH)/g.Stride + 1
	ow := (g.InW+2*g.Pad-g.KW)/g.Stride + 1
	return oh, ow
}

// Validate returns an error when the geometry is degenerate.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("%w: conv geometry %+v has non-positive dims", ErrShape, g)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("%w: conv stride %d must be positive", ErrShape, g.Stride)
	}
	if g.Pad < 0 {
		return fmt.Errorf("%w: conv pad %d must be non-negative", ErrShape, g.Pad)
	}
	oh, ow := g.OutHW()
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("%w: conv geometry %+v yields empty output %dx%d", ErrShape, g, oh, ow)
	}
	return nil
}

// Im2ColBatchInto unrolls a whole NCHW batch into one column matrix of
// shape (C*KH*KW, N·OH·OW), where column i·OH·OW + s holds output position
// s of sample i. Packing the batch once lets convolution run as a single
// large GEMM with the (outC, C*KH*KW) weight matrix instead of N small
// ones. Out-of-bounds taps contribute zeros (zero padding). dst is
// caller-owned, e.g. a scratch arena reused across training steps; every
// element is written (zeros included), so stale contents are harmless.
func Im2ColBatchInto(dst, x *Tensor, g ConvGeom) error {
	if err := validateBatchImage(x, g); err != nil {
		return err
	}
	n := x.shape[0]
	oh, ow := g.OutHW()
	s := oh * ow
	ns := n * s
	if dst.Rank() != 2 || dst.shape[0] != g.InC*g.KH*g.KW || dst.shape[1] != ns {
		return fmt.Errorf("%w: im2col batch dst %v does not match geometry %+v for batch %d", ErrShape, dst.shape, g, n)
	}
	src := x.data
	out := dst.data
	inSz := g.InC * g.InH * g.InW
	ParallelFor(n, func(i int) {
		img := src[i*inSz : (i+1)*inSz]
		row := 0
		for c := 0; c < g.InC; c++ {
			base := c * g.InH * g.InW
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					drow := out[row*ns+i*s : row*ns+(i+1)*s]
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						dseg := drow[oy*ow : (oy+1)*ow]
						if iy < 0 || iy >= g.InH {
							for ox := range dseg {
								dseg[ox] = 0
							}
							continue
						}
						srow := img[base+iy*g.InW : base+(iy+1)*g.InW]
						if g.Stride == 1 && kw >= g.Pad && g.InW-ow >= kw-g.Pad {
							// Interior fast path: the tap row is a straight copy.
							copy(dseg, srow[kw-g.Pad:])
							continue
						}
						for ox := range dseg {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								dseg[ox] = 0
							} else {
								dseg[ox] = srow[ix]
							}
						}
					}
					row++
				}
			}
		}
	})
	return nil
}

// Col2ImBatchInto is the adjoint of Im2ColBatchInto: it scatters a
// (C*KH*KW, N·OH·OW) column-gradient matrix back into an NCHW batch image,
// accumulating overlapping taps. dst is fully overwritten (it is zeroed
// before accumulation), so it can be a reused scratch arena.
func Col2ImBatchInto(dst, cols *Tensor, g ConvGeom) error {
	if err := validateBatchImage(dst, g); err != nil {
		return err
	}
	n := dst.shape[0]
	oh, ow := g.OutHW()
	s := oh * ow
	ns := n * s
	if cols.Rank() != 2 || cols.shape[0] != g.InC*g.KH*g.KW || cols.shape[1] != ns {
		return fmt.Errorf("%w: col2im batch cols %v does not match geometry %+v for batch %d", ErrShape, cols.shape, g, n)
	}
	src := cols.data
	out := dst.data
	inSz := g.InC * g.InH * g.InW
	ParallelFor(n, func(i int) {
		img := out[i*inSz : (i+1)*inSz]
		for j := range img {
			img[j] = 0
		}
		row := 0
		for c := 0; c < g.InC; c++ {
			base := c * g.InH * g.InW
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					srow := src[row*ns+i*s : row*ns+(i+1)*s]
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						sseg := srow[oy*ow : (oy+1)*ow]
						drow := img[base+iy*g.InW : base+(iy+1)*g.InW]
						if g.Stride == 1 && kw >= g.Pad && g.InW-ow >= kw-g.Pad {
							axpy1(drow[kw-g.Pad:][:ow], sseg, 1)
							continue
						}
						for ox := range sseg {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							drow[ix] += sseg[ox]
						}
					}
					row++
				}
			}
		}
	})
	return nil
}

func validateBatchImage(x *Tensor, g ConvGeom) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if x.Rank() != 4 || x.shape[1] != g.InC || x.shape[2] != g.InH || x.shape[3] != g.InW {
		return fmt.Errorf("%w: batch image %v does not match geometry %+v", ErrShape, x.shape, g)
	}
	return nil
}

// ConvDirect computes a 2-D convolution of a single image the naive way.
// It exists purely as a reference implementation for testing the
// im2col+GEMM path. weight has shape (outC, inC, KH, KW).
func ConvDirect(img, weight *Tensor, g ConvGeom) (*Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	outC := weight.shape[0]
	oh, ow := g.OutHW()
	out := New(outC, oh, ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							s += img.At(c, iy, ix) * weight.At(oc, c, kh, kw)
						}
					}
				}
				out.Set(s, oc, oy, ox)
			}
		}
	}
	return out, nil
}
