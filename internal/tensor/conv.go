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
// s of sample i. Out-of-bounds taps contribute zeros (zero padding). dst is
// caller-owned; every element is written (zeros included), so stale
// contents are harmless. The training convolution never builds this
// matrix — it gathers cache-resident sample bands (conv_band.go) through
// the same body; the batch form stays for callers that want the explicit
// matrix.
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
	// One strip per lane, a cache line apart: lanes never share a line.
	inSz, sl := g.InC*g.InH*g.InW, g.stageLen(1)+16
	stage := make([]float32, bandLanes(n)*sl)
	ParallelForWorker(n, func(i, lane int) {
		im2colInto(dst.data, x.data[i*inSz:(i+1)*inSz], g, 1, i*s, ns, stage[lane*sl:(lane+1)*sl])
	})
	return nil
}

// stageDims is the (height, width) of one staged plane: the input plane
// inside its zero border, grown to cover a kernel that overhangs the
// padded input (OutHW rounds such a geometry up to one output). The gather
// and the scatter go through a strip of staged planes so that every tap of
// every output row is an unconditional run: with the border materialized
// there is no per-run clipping, which at 4 to 16 floats a run cost more
// than the copy.
func (g ConvGeom) stageDims() (sh, sw int) {
	oh, ow := g.OutHW()
	return max(g.InH+2*g.Pad, (oh-1)*g.Stride+g.KH), max(g.InW+2*g.Pad, (ow-1)*g.Stride+g.KW)
}

// stageLen is the float count of the staging strip for nb samples — every
// channel of each, plane il·InC + c — plus one float of margin: the
// stride-2 tap kernels touch the float after the last one they use (see
// kernels_amd64.s).
func (g ConvGeom) stageLen(nb int) int {
	sh, sw := g.stageDims()
	return nb*g.InC*sh*sw + 1
}

// stageInto copies nb consecutive (C, H, W) images into the interior of
// the zero-bordered strip, channel c of sample il at plane il·InC + c.
// With ph = 2 each staged row is split into column phases, staged column X
// at (X%2)·pw + X/2 of a row of 2·pw floats (pw = ⌈sw/2⌉): every tap of a
// stride-2 conv is then a contiguous run.
func stageInto(stage, x []float32, g ConvGeom, nb, ph int) {
	sh, sw := g.stageDims()
	pw := blocks(sw, ph)
	sp, rl := sh*ph*pw, ph*pw
	clear(stage[:nb*g.InC*sp])
	// Input column x lands at staged column x+Pad: even x from +e, odd x from +o.
	e, o := g.Pad*rl+g.Pad%ph*pw+g.Pad/ph, g.Pad*rl+(g.Pad+1)%ph*pw+(g.Pad+1)/ph
	stageRows(stage, x[:nb*g.InC*g.InH*g.InW], nb*g.InC, g.InH, g.InW, sp, rl, e, o, ph)
}

// im2colInto gathers the patch matrices of nb consecutive (C, H, W) images
// into columns [j0, j0+nb·OH·OW) of dst. Column j of patch row q lands at
// dst[(j/pw)·kdim·pw + q·pw + j%pw]: with pw equal to the row stride that
// is the plain row-major matrix, with pw = 16 the packed GEMM's
// column-panel layout, so a band gathered for the micro-kernels needs no
// separate pack pass. stage holds stageLen(nb) floats.
func im2colInto(dst, x []float32, g ConvGeom, nb, j0, pw int, stage []float32) {
	oh, ow := g.OutHW()
	st := g.Stride
	sh, sw := g.stageDims()
	sp := sh * sw
	kp := g.InC * g.KH * g.KW * pw // floats per column panel
	gather := tapGatherGo
	if tapGatherAsm != nil && st <= 2 {
		gather = tapGatherAsm
	}
	stageInto(stage, x, g, nb, 1)
	q := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				gather(dst[(j0/pw)*kp+q*pw:], stage[c*sp+kh*sw+kw:], j0%pw, nb, oh, ow, st*sw, g.InC*sp, st, pw, kp)
				q++
			}
		}
	}
}

// tapGatherAsm and tapScatterAsm, when non-nil, are the SIMD walks of one
// tap for strides 1 and 2, byte-identical to tapGatherGo / tapScatterGo;
// at stride 2 they touch the one-float margin stageLen allocates. They are
// set and cleared together.
var (
	tapGatherAsm  func(dst, src []float32, off, nb, oh, ow, rs, sp, st, pw, kp int)
	tapScatterAsm func(dst, src []float32, nb, oh, ow, rs, sp, st int)
)

// tapGatherGo copies one (channel, kh, kw) tap of nb staged samples into
// its patch row: the ow floats of output row oy of sample il, at
// src[il·sp + oy·rs + ox·st], become columns off + (il·OH + oy)·ow + ox,
// column j stored at dst[(j/pw)·kp + j%pw].
func tapGatherGo(dst, src []float32, off, nb, oh, ow, rs, sp, st, pw, kp int) {
	base := 0
	for il := 0; il < nb; il++ {
		for oy := 0; oy < oh; oy++ {
			sx := il*sp + oy*rs
			for ox := 0; ox < ow; { // one run per panel the row crosses
				n := min(ow-ox, pw-off)
				d := dst[base+off : base+off+n]
				if st == 1 && n >= runCopyMin {
					copy(d, src[sx:])
					sx += n
				} else {
					for i := range d {
						d[i] = src[sx]
						sx += st
					}
				}
				ox += n
				if off += n; off == pw {
					off, base = 0, base+kp
				}
			}
		}
	}
}

// runCopyMin is the run length from which the portable gather copies a
// stride-1 run with memmove rather than a scalar loop.
const runCopyMin = 8

// Col2ImBatchInto is the adjoint of Im2ColBatchInto: it scatters a
// (C*KH*KW, N·OH·OW) column-gradient matrix back into an NCHW batch image,
// accumulating overlapping taps. dst is fully overwritten, so it can be a
// reused scratch arena.
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
	sh, sw := g.stageDims()
	inSz, sl := g.InC*g.InH*g.InW, sh*sw+1 // col2imInto accumulates one channel at a time
	stage := make([]float32, n*sl)
	ParallelFor(n, func(i int) {
		col2imInto(dst.data[i*inSz:(i+1)*inSz], cols.data, g, 1, i*s, ns, stage[i*sl:(i+1)*sl])
	})
	return nil
}

// col2imInto overwrites nb consecutive (C, H, W) images with the scatter
// of columns [j0, j0+nb·OH·OW) of the row-major column-gradient matrix
// cols (row stride ld). Every image element accumulates its taps in
// (kh, kw, oy) order whatever the batch or band around it, so input
// gradients do not depend on how the batch was cut; taps that fall in the
// padding accumulate in the staging border and are dropped. stage holds
// nb·sh·sw + 1 floats: one channel of the band and the stride-2 margin.
func col2imInto(dx, cols []float32, g ConvGeom, nb, j0, ld int, stage []float32) {
	oh, ow := g.OutHW()
	st, hw := g.Stride, g.InH*g.InW
	sh, sw := g.stageDims()
	sp := sh * sw
	gather, scatter := tapGatherGo, tapScatterGo
	if tapScatterAsm != nil && st <= 2 {
		gather, scatter = tapGatherAsm, tapScatterAsm
	}
	q := 0
	for c := 0; c < g.InC; c++ {
		clear(stage[:nb*sp])
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				scatter(stage[kh*sw+kw:], cols[q*ld+j0:], nb, oh, ow, st*sw, sp, st)
				q++
			}
		}
		// The interior back out: the staging gather with the strides swapped.
		for il := 0; il < nb; il++ {
			gather(dx[(il*g.InC+c)*hw:], stage[il*sp+g.Pad*sw+g.Pad:], 0, 1, g.InH, g.InW, sw, 0, 1, g.InW, g.InW)
		}
	}
}

// tapScatterGo is the adjoint walk of tapGatherGo over a row-major source:
// the nb·OH·ow contiguous floats of src are added, one add each, into the
// strip positions the gather reads. A tap reaches each position at most
// once, so the order within a tap does not matter.
func tapScatterGo(dst, src []float32, nb, oh, ow, rs, sp, st int) {
	for il := 0; il < nb; il++ {
		for oy := 0; oy < oh; oy++ {
			d := dst[il*sp+oy*rs:]
			for ox, v := range src[:ow] {
				d[ox*st] += v
			}
			src = src[ow:]
		}
	}
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
