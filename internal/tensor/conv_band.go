package tensor

import "fmt"

// Band-resident float convolution: the training conv's one lowering, the
// float twin of ConvU8I8ImplicitInto. No full-batch patch matrix exists in
// either direction. The unit of work is a sample band — the fewest whole
// samples whose output positions reach f32BandCols columns, clamped to
// the batch — and one pool task owns a band end to end:
//
//   - forward gathers the band's patches straight into 16-wide column
//     panels of a per-lane tile, runs the packed micro-kernels against the
//     weights and copies the product into the NCHW output with the bias
//     folded in;
//   - backward re-gathers the band row-major from the retained input,
//     forms the band's weight-gradient partial dWᵀ = patches·doutᵀ (the
//     small operand, dout, is the one transposed into panels), overwrites
//     the tile with the column gradients Wᵀ·dout and scatters them into dx
//     through the band-local col2im.
//
// Every output and input-gradient element is one accumulator summed in
// ascending k inside one task, so both are bit-identical for any worker
// count and any banding. The weight (and bias) gradient is the sum of the
// per-band partials, added in band order after the join: byte-identical
// for any worker count, but a function of the band size.

// f32BandCols is the column count a sample band aims for: at 256 columns
// the tile of the widest conv in the zoo (kdim 288) is 295 KB — L2
// resident — and every micro-kernel call still sees a long panel run.
const f32BandCols = 256

// ConvPlanF32 is the geometry of one float convolution layer with
// everything the band tasks would otherwise rederive. Plans are immutable.
type ConvPlanF32 struct {
	g    ConvGeom
	outC int
	kdim int // patch rows: InC·KH·KW
	s    int // output positions per sample: OH·OW
	inSz int // input floats per sample
	tpw  int // panel width of the doutᵀ operand: 8 up to 8 channels, else 16
	tld  int // outC rounded up to tpw: the row stride of a dWᵀ partial
}

// NewConvPlanF32 builds the band schedule for a geometry and channel count.
func NewConvPlanF32(g ConvGeom, outC int) (*ConvPlanF32, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if outC <= 0 {
		return nil, fmt.Errorf("%w: conv outC %d", ErrShape, outC)
	}
	oh, ow := g.OutHW()
	p := &ConvPlanF32{g: g, outC: outC, kdim: g.InC * g.KH * g.KW, s: oh * ow, inSz: g.InC * g.InH * g.InW, tpw: f32PanelCols}
	if outC <= f32PanelColsNarrow {
		p.tpw = f32PanelColsNarrow
	}
	p.tld = blocks(outC, p.tpw) * p.tpw
	return p, nil
}

// bandSamples is the band rule: whole samples per band for a batch of n.
func (p *ConvPlanF32) bandSamples(n int) int { return min(n, blocks(f32BandCols, p.s)) }

// ld is the tile row stride of a band of nb samples: its columns rounded
// up to whole panels.
func (p *ConvPlanF32) ld(nb int) int { return blocks(nb*p.s, f32PanelCols) * f32PanelCols }

// partLen is the float count of one band's gradient partial: dWᵀ as
// (kdim, tld) followed by outC bias sums.
func (p *ConvPlanF32) partLen() int { return p.kdim*p.tld + p.outC }

// ConvScratchF32 is the working memory of one layer's band tasks, owned by
// the caller so steady-state steps allocate nothing; the zero value is
// ready. It holds one lane per concurrent task — sized by the band, never
// by the batch — plus the per-band gradient partials.
type ConvScratchF32 struct {
	lanes []convLaneF32
	part  []float32 // bands × partLen
}

type convLaneF32 struct {
	tile  []float32 // kdim × ld: the band's patches, then (backward) its column gradients
	prod  []float32 // outC × ld: forward product; backward, dout in column panels
	doT   []float32 // ld × tld: backward, doutᵀ in column panels
	stage []float32 // the band's zero-bordered input planes, one channel at a time
}

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// lanesFor sizes the scratch for bands of bs samples and returns the lanes
// of this call: one per worker, at most one per band.
func (sc *ConvScratchF32) lanesFor(p *ConvPlanF32, bs, bands int, backward bool) []convLaneF32 {
	nl := min(maxWorkers, bands)
	if len(sc.lanes) < nl {
		sc.lanes = append(sc.lanes, make([]convLaneF32, nl-len(sc.lanes))...)
	}
	ld := p.ld(bs)
	for i := range sc.lanes[:nl] {
		ln := &sc.lanes[i]
		ln.tile = growF32(ln.tile, p.kdim*ld)
		ln.prod = growF32(ln.prod, p.outC*ld)
		ln.stage = growF32(ln.stage, p.g.stageLen(bs))
		if backward {
			ln.doT = growF32(ln.doT, ld*p.tld)
		}
	}
	if backward {
		sc.part = growF32(sc.part, bands*p.partLen())
	}
	return sc.lanes[:nl]
}

func (p *ConvPlanF32) check(op string, n, lenX, lenOut, lenW int) error {
	if n <= 0 {
		return fmt.Errorf("%w: %s batch size %d", ErrShape, op, n)
	}
	if lenX < n*p.inSz {
		return fmt.Errorf("%w: %s input has %d elements, want >= %d", ErrShape, op, lenX, n*p.inSz)
	}
	if lenOut < n*p.outC*p.s {
		return fmt.Errorf("%w: %s output has %d elements, want >= %d", ErrShape, op, lenOut, n*p.outC*p.s)
	}
	if lenW < p.outC*p.kdim {
		return fmt.Errorf("%w: %s weight has %d elements, want >= %d", ErrShape, op, lenW, p.outC*p.kdim)
	}
	return nil
}

// ConvF32ForwardInto computes out = conv(x, w) + bias for an NCHW batch of
// n samples: x is (n, InC, InH, InW), w the (outC, kdim) weight matrix,
// bias outC values or nil, out (n, outC, OH, OW), fully overwritten. The
// serial path is a plain loop (a closure handed to the pool escapes to the
// heap; a direct call does not).
func ConvF32ForwardInto(out, x []float32, n int, w, bias []float32, p *ConvPlanF32, sc *ConvScratchF32) error {
	if err := p.check("conv forward", n, len(x), len(out), len(w)); err != nil {
		return err
	}
	if bias != nil && len(bias) < p.outC {
		return fmt.Errorf("%w: conv forward bias has %d elements, want >= %d", ErrShape, len(bias), p.outC)
	}
	bs := p.bandSamples(n)
	bands := blocks(n, bs)
	lanes := sc.lanesFor(p, bs, bands, false)
	if len(lanes) == 1 {
		for t := 0; t < bands; t++ {
			p.forwardBand(&lanes[0], out, x, w, bias, t*bs, min(bs, n-t*bs))
		}
		return nil
	}
	ParallelForWorker(bands, func(t, lane int) {
		p.forwardBand(&lanes[lane], out, x, w, bias, t*bs, min(bs, n-t*bs))
	})
	return nil
}

// forwardBand is the forward task of samples [i0, i0+nb). Tile columns
// past the band's last position hold stale values: their lanes of the
// product are computed and never copied out.
func (p *ConvPlanF32) forwardBand(ln *convLaneF32, out, x, w, bias []float32, i0, nb int) {
	s, ld := p.s, p.ld(nb)
	im2colInto(ln.tile, x[i0*p.inSz:(i0+nb)*p.inSz], p.g, nb, 0, f32PanelCols, ln.stage)
	b := PackedF32{k: p.kdim, n: ld, pw: f32PanelCols, panels: ld / f32PanelCols, data: ln.tile}
	matMulF32PackedSerial(ln.prod, w, &b, p.outC, p.kdim, 1)
	for il := 0; il < nb; il++ {
		for oc := 0; oc < p.outC; oc++ {
			src := ln.prod[oc*ld+il*s : oc*ld+(il+1)*s]
			dst := out[((i0+il)*p.outC+oc)*s:][:s]
			if bias == nil {
				copy(dst, src)
				continue
			}
			bv := bias[oc]
			for j, v := range src {
				dst[j] = v + bv
			}
		}
	}
}

// ConvF32BackwardInto is the adjoint of ConvF32ForwardInto for the same x
// and w: dx (shaped like x) is overwritten with the input gradient, and
// the weight gradient doutᵀ-contracted with the patches is accumulated
// into gw (outC, kdim), the per-channel sums of dout into gb (nil: no
// bias).
func ConvF32BackwardInto(dx, gw, gb, x, dout []float32, n int, w []float32, p *ConvPlanF32, sc *ConvScratchF32) error {
	if err := p.check("conv backward", n, min(len(x), len(dx)), len(dout), min(len(w), len(gw))); err != nil {
		return err
	}
	if gb != nil && len(gb) < p.outC {
		return fmt.Errorf("%w: conv backward bias gradient has %d elements, want >= %d", ErrShape, len(gb), p.outC)
	}
	bs := p.bandSamples(n)
	bands := blocks(n, bs)
	lanes := sc.lanesFor(p, bs, bands, true)
	pl := p.partLen()
	if len(lanes) == 1 {
		for t := 0; t < bands; t++ {
			p.backwardBand(&lanes[0], sc.part[t*pl:(t+1)*pl], dx, x, dout, w, t*bs, min(bs, n-t*bs))
		}
	} else {
		ParallelForWorker(bands, func(t, lane int) {
			p.backwardBand(&lanes[lane], sc.part[t*pl:(t+1)*pl], dx, x, dout, w, t*bs, min(bs, n-t*bs))
		})
	}
	// Band order, one accumulator per element: the same bytes whichever
	// worker produced which partial.
	for q := 0; q < p.kdim; q++ {
		for oc := 0; oc < p.outC; oc++ {
			var sum float32
			for t := 0; t < bands; t++ {
				sum += sc.part[t*pl+q*p.tld+oc]
			}
			gw[oc*p.kdim+q] += sum
		}
	}
	for oc := 0; oc < p.outC && gb != nil; oc++ {
		var sum float32
		for t := 0; t < bands; t++ {
			sum += sc.part[t*pl+p.kdim*p.tld+oc]
		}
		gb[oc] += sum
	}
	return nil
}

// backwardBand is the backward task of samples [i0, i0+nb); part receives
// the band's gradient partial.
func (p *ConvPlanF32) backwardBand(ln *convLaneF32, part, dx, x, dout, w []float32, i0, nb int) {
	s, kdim, outC := p.s, p.kdim, p.outC
	cols, ld := nb*s, p.ld(nb)
	im2colInto(ln.tile, x[i0*p.inSz:(i0+nb)*p.inSz], p.g, nb, 0, ld, ln.stage) // patches, row-major at row stride ld
	// One read of dout fills both packed forms — column panels for
	// Wᵀ·dout, transposed panels for patches·doutᵀ — and the bias partial.
	tpw := p.tpw
	for oc := 0; oc < outC; oc++ {
		var sum float32
		dT := ln.doT[(oc/tpw)*cols*tpw+oc%tpw:]
		for il := 0; il < nb; il++ {
			src := dout[((i0+il)*outC+oc)*s:][:s]
			putPanelRun(ln.prod, src, outC, oc, il*s)
			for j, v := range src {
				dT[(il*s+j)*tpw] = v
				sum += v
			}
		}
		part[kdim*p.tld+oc] = sum
	}
	bt := PackedF32{k: cols, n: p.tld, pw: tpw, panels: p.tld / tpw, data: ln.doT}
	matMulF32PackedSerial(part, ln.tile, &bt, kdim, ld, 1)
	// The patches are spent: the tile becomes dcols = Wᵀ·dout, row q tap oc
	// of the operand at w[oc·kdim+q].
	bd := PackedF32{k: outC, n: ld, pw: f32PanelCols, panels: ld / f32PanelCols, data: ln.prod}
	matMulF32PackedSerial(ln.tile, w, &bd, kdim, 1, kdim)
	col2imInto(dx[i0*p.inSz:(i0+nb)*p.inSz], ln.tile, p.g, nb, 0, ld, ln.stage)
}

// putPanelRun copies src into columns [j0, j0+len(src)) of row q of a
// k-row matrix held in 16-wide column panels.
func putPanelRun(dst, src []float32, k, q, j0 int) {
	const pw = f32PanelCols
	base, off := (j0/pw)*k*pw+q*pw, j0%pw
	for len(src) > 0 {
		n := min(len(src), pw-off)
		copy(dst[base+off:], src[:n])
		src, off, base = src[n:], 0, base+k*pw
	}
}
