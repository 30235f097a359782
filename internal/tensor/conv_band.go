package tensor

import "fmt"

// Band-resident float convolution: the training conv's one lowering, the
// float twin of ConvU8I8ImplicitInto. No full-batch patch matrix exists in
// either direction. The unit of work is a sample band — the fewest whole
// samples whose output positions reach f32BandCols columns, clamped to
// the batch — and one band-driver task (runBands) owns a band end to end:
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

// grow returns buf resized to n elements, reallocated only when its
// capacity is short; contents are stale.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// bandsFor sizes the scratch for a batch of n — one lane per worker, at
// most one per band — and returns the call's banding and band count.
func (sc *ConvScratchF32) bandsFor(p *ConvPlanF32, n int, backward bool) (convBandsF32, int) {
	bs := p.bandSamples(n)
	bands := blocks(n, bs)
	nl := bandLanes(bands)
	if len(sc.lanes) < nl {
		sc.lanes = append(sc.lanes, make([]convLaneF32, nl-len(sc.lanes))...)
	}
	ld := p.ld(bs)
	for i := range sc.lanes[:nl] {
		ln := &sc.lanes[i]
		ln.tile = grow(ln.tile, p.kdim*ld)
		ln.prod = grow(ln.prod, p.outC*ld)
		ln.stage = grow(ln.stage, p.g.stageLen(bs))
		if backward {
			ln.doT = grow(ln.doT, ld*p.tld)
		}
	}
	if backward {
		sc.part = grow(sc.part, bands*p.partLen())
	}
	return convBandsF32{p: p, sc: sc, n: n, bs: bs}, bands
}

// convBandsF32 is what both float band jobs share: the plan, the scratch
// and the banding of one call. The jobs stay within the 128 bytes a
// closure captures by value, so the parallel path allocates no extra copy.
type convBandsF32 struct {
	p     *ConvPlanF32
	sc    *ConvScratchF32
	n, bs int
}

// task resolves task t on lane: the lane's scratch, the task's first
// sample and its sample count.
func (b convBandsF32) task(t, lane int) (ln *convLaneF32, i0, nb int) {
	return &b.sc.lanes[lane], t * b.bs, min(b.bs, b.n-t*b.bs)
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
// bias outC values or nil, out (n, outC, OH, OW), fully overwritten.
func ConvF32ForwardInto(out, x []float32, n int, w, bias []float32, p *ConvPlanF32, sc *ConvScratchF32) error {
	if err := p.check("conv forward", n, len(x), len(out), len(w)); err != nil {
		return err
	}
	if bias != nil && len(bias) < p.outC {
		return fmt.Errorf("%w: conv forward bias has %d elements, want >= %d", ErrShape, len(bias), p.outC)
	}
	b, bands := sc.bandsFor(p, n, false)
	runBands(convF32Fwd{convBandsF32: b, out: out, x: x, w: w, bias: bias}, bands, nil)
	return nil
}

// convF32Fwd is the forward band job (see the file comment). Tile columns
// past the band's last position hold stale values: their lanes of the
// product are computed and never copied out.
type convF32Fwd struct {
	convBandsF32
	out, x, w, bias []float32
}

func (j convF32Fwd) gather(t, lane int) {
	ln, i0, nb := j.task(t, lane)
	im2colInto(ln.tile, j.x[i0*j.p.inSz:(i0+nb)*j.p.inSz], j.p.g, nb, 0, f32PanelCols, ln.stage)
}

func (j convF32Fwd) compute(t, lane int) {
	ln, _, nb := j.task(t, lane)
	p, ld := j.p, j.p.ld(nb)
	b := PackedF32{k: p.kdim, n: ld, pw: f32PanelCols, panels: ld / f32PanelCols, data: ln.tile}
	matMulF32PackedSerial(ln.prod, j.w, &b, p.outC, p.kdim, 1)
}

func (j convF32Fwd) epilogue(t, lane int) {
	ln, i0, nb := j.task(t, lane)
	p, s, ld := j.p, j.p.s, j.p.ld(nb)
	for il := 0; il < nb; il++ {
		for oc := 0; oc < p.outC; oc++ {
			src := ln.prod[oc*ld+il*s : oc*ld+(il+1)*s]
			dst := j.out[((i0+il)*p.outC+oc)*s:][:s]
			if j.bias == nil {
				copy(dst, src)
				continue
			}
			bv := j.bias[oc]
			for k, v := range src {
				dst[k] = v + bv
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
	b, bands := sc.bandsFor(p, n, true)
	runBands(convF32Bwd{convBandsF32: b, dx: dx, x: x, dout: dout, w: w}, bands, nil)
	// Band order, one accumulator per element: the same bytes whichever
	// worker produced which partial.
	pl := p.partLen()
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

// convF32Bwd is the backward band job (see the file comment); task t's
// gradient partial goes to partOf(t).
type convF32Bwd struct {
	convBandsF32
	dx, x, dout, w []float32
}

// partOf is task t's gradient partial.
func (j convF32Bwd) partOf(t int) []float32 { return j.sc.part[t*j.p.partLen():][:j.p.partLen()] }

func (j convF32Bwd) gather(t, lane int) {
	ln, i0, nb := j.task(t, lane)
	p, s, outC, part := j.p, j.p.s, j.p.outC, j.partOf(t)
	cols, ld := nb*s, p.ld(nb)
	im2colInto(ln.tile, j.x[i0*p.inSz:(i0+nb)*p.inSz], p.g, nb, 0, ld, ln.stage) // patches, row-major at row stride ld
	// One read of dout fills both packed forms — column panels for
	// Wᵀ·dout, transposed panels for patches·doutᵀ — and the bias partial.
	tpw := p.tpw
	for oc := 0; oc < outC; oc++ {
		var sum float32
		dT := ln.doT[(oc/tpw)*cols*tpw+oc%tpw:]
		for il := 0; il < nb; il++ {
			src := j.dout[((i0+il)*outC+oc)*s:][:s]
			putPanelRun(ln.prod, src, outC, oc, il*s)
			for k, v := range src {
				dT[(il*s+k)*tpw] = v
				sum += v
			}
		}
		part[p.kdim*p.tld+oc] = sum
	}
}

func (j convF32Bwd) compute(t, lane int) {
	ln, _, nb := j.task(t, lane)
	p, cols, ld := j.p, nb*j.p.s, j.p.ld(nb)
	bt := PackedF32{k: cols, n: p.tld, pw: p.tpw, panels: p.tld / p.tpw, data: ln.doT}
	matMulF32PackedSerial(j.partOf(t), ln.tile, &bt, p.kdim, ld, 1)
	// The patches are spent: the tile becomes dcols = Wᵀ·dout, row q tap oc
	// of the operand at w[oc·kdim+q].
	bd := PackedF32{k: p.outC, n: ld, pw: f32PanelCols, panels: ld / f32PanelCols, data: ln.prod}
	matMulF32PackedSerial(ln.tile, j.w, &bd, p.kdim, 1, p.kdim)
}

func (j convF32Bwd) epilogue(t, lane int) {
	ln, i0, nb := j.task(t, lane)
	col2imInto(j.dx[i0*j.p.inSz:(i0+nb)*j.p.inSz], ln.tile, j.p.g, nb, 0, j.p.ld(nb), ln.stage)
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
