package tensor

import "fmt"

// Band-resident float convolution: the training conv's one lowering, the
// float twin of ConvU8I8ImplicitInto. No full-batch patch matrix exists in
// either direction. The unit of work is a sample band — the fewest whole
// samples whose output positions reach f32BandCols columns, clamped to
// the batch — and one band-driver task (runBands) owns a band end to end.
// Both directions first stage every channel of the band once into a
// per-lane zero-bordered strip (stageInto); a patch element is then one
// strip float, at the plan's row offset ofs[q] plus a column offset.
//
//   - forward runs the packed micro-kernels against the weights with the
//     band's patches as B and copies the product into the NCHW output with
//     the bias folded in. A stride-1 conv whose output width is a multiple
//     of 8 reads each 16-column panel straight from the strip, as two
//     8-float runs (strip-route kernels); every other conv first gathers
//     the patches into 16-wide column panels of a per-lane tile;
//   - backward forms the band's weight-gradient partial dWᵀ = patches·doutᵀ
//     with the patches read from the strip (the small operand, dout, is the
//     one transposed into panels). A stride-1 conv whose output is its
//     input's size, a multiple of 8 wide, then stages the band's dout into
//     a second strip and reads dx off it (strip-route dx kernel); every
//     other conv fills the lane tile with the column gradients Wᵀ·dout and
//     scatters them into dx through the band-local col2im, which reuses
//     the strip as its accumulator.
//
// A strip read is the value a gather copies, in the same FMA order. The dx
// kernel sums one segment of outC taps per kernel tap (kh, kw) from zero —
// the column gradient, in the GEMM's FMA chain — and adds the segments to
// +0 in (kh, kw) order, the scatter's order; a tap in the dout strip's
// border adds the +0 the scatter skips. So dx is the scatter's bytes, but
// for one edge: with a non-finite weight a border tap gives NaN (∞·0), as
// the forward's zero-padded gather already does.
//
// Every output and input-gradient element is computed in a fixed order
// inside one task, so both are bit-identical for any worker count and any
// banding. The weight (and bias) gradient is the sum of the
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
	// ofs[q] is the strip offset c·sh·sw + kh·sw + kw of patch row q at
	// column 0, zero-padded to a multiple of 4 rows for the dW kernels.
	ofs    []int32
	halves []int32   // strip offset of column 8h of the largest band; nil: the forward gathers
	dw     stripWalk // the weight-gradient kernels' k walk, nb set per band
	gather bool      // every product through the lane tile: convGatherOnly at build
	// dx route (nil dxOfs: dx scatters): the dout-strip offset of tap
	// (kh, kw, oc), oc·sh·sw + (KH−1−kh)·sw + KW−1−kw, at (kh·KW+kw)·outC+oc.
	// They lie in [0, dxHi] (tap (KH−1, KW−1, 0) is 0), not ascending.
	dxOfs, dxHalves []int32 // dxHalves: halves of the dout strip
	dxHi, dxRows    int     // dxRows: InC rounded up to 4
}

// convGatherOnly, set by tests before NewConvPlanF32, builds plans that run
// every product on the gathered lane tile: the strip route's reference.
var convGatherOnly bool

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
	sh, sw := g.stageDims()
	p.ofs = make([]int32, blocks(p.kdim, 4)*4)
	for q := 0; q < p.kdim; q++ {
		c, kh, kw := q/(g.KH*g.KW), q/g.KW%g.KH, q%g.KW
		p.ofs[q] = int32(c*sh*sw + kh*sw + kw)
	}
	p.dw = stripWalk{oh: oh, ow: ow, sps: g.InC * sh * sw, rs: g.Stride * sw, st: g.Stride}
	p.gather = convGatherOnly
	// The forward rule: a stride-1 conv whose output rows are whole
	// 8-column halves reads its panels from the strip; every other conv
	// gathers them.
	halves := func(sps int) []int32 { // of a strip with sps floats per sample
		t := make([]int32, p.ld(blocks(f32BandCols, p.s))/8)
		for h := range t {
			il, r := 8*h/p.s, 8*h%p.s
			t[h] = int32(il*sps + r/ow*sw + r%ow)
		}
		return t
	}
	if g.Stride == 1 && ow%8 == 0 && !p.gather {
		p.halves = halves(p.dw.sps)
	}
	// The dx rule: a stride-1 conv whose output is its input's size, in
	// whole 8-column halves, reads dx off a dout strip; every other conv
	// scatters. Its planes are bordered as the input's (doutGeom).
	if p.halves != nil && oh == g.InH && ow == g.InW {
		sp := sh * sw
		p.dxOfs = make([]int32, g.KH*g.KW*outC)
		for t := range p.dxOfs {
			kh, kw, oc := t/outC/g.KW, t/outC%g.KW, t%outC
			p.dxOfs[t] = int32(oc*sp + (g.KH-1-kh)*sw + g.KW - 1 - kw)
			p.dxHi = max(p.dxHi, int(p.dxOfs[t]))
		}
		p.dxHalves = halves(outC * sp)
		p.dxRows = blocks(g.InC, 4) * 4
	}
	return p, nil
}

// doutGeom is the geometry of a dx-route band's dout strip.
func (p *ConvPlanF32) doutGeom() ConvGeom {
	g := p.g
	g.InC = p.outC
	return g
}

// bandSamples is the band rule: whole samples per band for a batch of n.
func (p *ConvPlanF32) bandSamples(n int) int { return min(n, blocks(f32BandCols, p.s)) }

// ld is the tile row stride of a band of nb samples: its columns rounded
// up to whole panels.
func (p *ConvPlanF32) ld(nb int) int { return blocks(nb*p.s, f32PanelCols) * f32PanelCols }

// partLen is the float count of one band's gradient partial: dWᵀ as
// (len(ofs), tld) — rows past kdim are never read — followed by outC bias
// sums.
func (p *ConvPlanF32) partLen() int { return len(p.ofs)*p.tld + p.outC }

// ConvScratchF32 is the working memory of one layer's band tasks, owned by
// the caller so steady-state steps allocate nothing; the zero value is
// ready. It holds one lane per concurrent task — sized by the band, never
// by the batch — plus the per-band gradient partials.
type ConvScratchF32 struct {
	lanes []convLaneF32
	part  []float32 // bands × partLen
	wT    []float32 // dx route: the weights as (dxRows, KH·KW·outC), tap (kh, kw, oc) of row c; rows past InC zero
}

type convLaneF32 struct {
	tile   []float32 // kdim × ld: gather-route forward, the band's patches; scatter-route backward, its column gradients
	prod   []float32 // max(outC, dxRows) × ld: forward product; scatter-route backward, dout in column panels; dx route, dx
	doT    []float32 // ld × tld: backward, doutᵀ in column panels
	stage  []float32 // the band's zero-bordered input planes, all channels; scatter-route backward, then the scatter's accumulator
	dstage []float32 // dx route: the band's dout, staged as doutGeom
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
		if p.halves == nil || backward && p.dxOfs == nil {
			ln.tile = grow(ln.tile, p.kdim*ld)
		}
		ln.prod = grow(ln.prod, max(p.outC, p.dxRows)*ld)
		ln.stage = grow(ln.stage, p.g.stageLen(bs))
		if backward {
			ln.doT = grow(ln.doT, ld*p.tld)
		}
		if backward && p.dxOfs != nil {
			ln.dstage = grow(ln.dstage, p.doutGeom().stageLen(bs))
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
	x := j.x[i0*j.p.inSz : (i0+nb)*j.p.inSz]
	if j.p.halves != nil {
		stageInto(ln.stage, x, j.p.g, nb)
		return
	}
	im2colInto(ln.tile, x, j.p.g, nb, 0, f32PanelCols, ln.stage)
}

func (j convF32Fwd) compute(t, lane int) {
	ln, _, nb := j.task(t, lane)
	p, ld := j.p, j.p.ld(nb)
	if p.halves == nil {
		b := PackedF32{k: p.kdim, n: ld, pw: f32PanelCols, panels: ld / f32PanelCols, data: ln.tile}
		matMulF32PackedSerial(ln.prod, j.w, &b, p.outC, p.kdim, 1)
		return
	}
	for pi := 0; pi < ld/f32PanelCols; pi++ {
		h0, h1 := halfBases(p.halves, pi, nb*p.s)
		f32StripPanel(ln.prod[pi*f32PanelCols:], j.w, ln.stage, p.ofs, p.outC, p.kdim, p.kdim, ld, h0, h1)
	}
}

func (j convF32Fwd) epilogue(t, lane int) {
	ln, i0, nb := j.task(t, lane)
	drainInto(j.out[i0*j.p.outC*j.p.s:], ln.prod, j.bias, nb, j.p.outC, j.p.s, j.p.ld(nb))
}

// halfBases is panel pi's two half-bases from a halves table; past a band
// of cols columns the second re-reads the first (its product is never
// copied out).
func halfBases(halves []int32, pi, cols int) (h0, h1 int) {
	h0, h1 = int(halves[2*pi]), int(halves[2*pi+1])
	if pi*f32PanelCols+8 >= cols {
		h1 = h0
	}
	return h0, h1
}

// drainInto copies rows r < c of a band's product (row stride ld, sample
// il at column il·s) into nb NCHW samples of c planes, adding bias[r]
// unless bias is nil.
func drainInto(dst, prod, bias []float32, nb, c, s, ld int) {
	for il := 0; il < nb; il++ {
		for r := 0; r < c; r++ {
			src, d := prod[r*ld+il*s:][:s], dst[(il*c+r)*s:][:s]
			if bias == nil {
				copy(d, src)
				continue
			}
			for k, v := range src {
				d[k] = v + bias[r]
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
	if p.dxOfs != nil {
		kk := p.g.KH * p.g.KW
		sc.wT = grow(sc.wT, p.dxRows*kk*p.outC)
		clear(sc.wT[p.g.InC*kk*p.outC:])
		for c := 0; c < p.g.InC; c++ {
			for t := 0; t < kk; t++ {
				for oc := 0; oc < p.outC; oc++ {
					sc.wT[(c*kk+t)*p.outC+oc] = w[oc*p.kdim+c*kk+t]
				}
			}
		}
	}
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
			sum += sc.part[t*pl+len(p.ofs)*p.tld+oc]
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
	cols, x := nb*s, j.x[i0*p.inSz:(i0+nb)*p.inSz]
	if p.gather {
		im2colInto(ln.tile, x, p.g, nb, 0, p.ld(nb), ln.stage) // patches, row-major at row stride ld
	} else {
		stageInto(ln.stage, x, p.g, nb)
	}
	// One read of dout fills the transposed panels for patches·doutᵀ, the
	// bias partial and, on the scatter route, the column panels for
	// Wᵀ·dout; the dx route stages it instead.
	tpw, dout := p.tpw, j.dout[i0*outC*s:(i0+nb)*outC*s]
	if p.dxOfs != nil {
		stageInto(ln.dstage, dout, p.doutGeom(), nb)
	}
	for oc := 0; oc < outC; oc++ {
		var sum float32
		dT := ln.doT[(oc/tpw)*cols*tpw+oc%tpw:]
		for il := 0; il < nb; il++ {
			src := dout[(il*outC+oc)*s:][:s]
			if p.dxOfs == nil {
				putPanelRun(ln.prod, src, outC, oc, il*s)
			}
			for k, v := range src {
				dT[(il*s+k)*tpw] = v
				sum += v
			}
		}
		part[len(p.ofs)*p.tld+oc] = sum
	}
}

func (j convF32Bwd) compute(t, lane int) {
	ln, _, nb := j.task(t, lane)
	p, cols, ld := j.p, nb*j.p.s, j.p.ld(nb)
	if p.gather {
		bt := PackedF32{k: cols, n: p.tld, pw: p.tpw, panels: p.tld / p.tpw, data: ln.doT}
		matMulF32PackedSerial(j.partOf(t), ln.tile, &bt, p.kdim, ld, 1)
	} else {
		part, walk := j.partOf(t), p.dw
		walk.nb = nb
		for pi := 0; pi < p.tld/p.tpw; pi++ {
			f32StripDW(part[pi*p.tpw:], ln.stage, p.ofs, ln.doT[pi*cols*p.tpw:], p.tpw, walk, p.tld)
		}
	}
	if p.dxOfs != nil {
		clear(ln.prod[:p.dxRows*ld]) // the running sums start at +0
		for pi := 0; pi < ld/f32PanelCols; pi++ {
			h0, h1 := halfBases(p.dxHalves, pi, cols)
			f32StripDX(ln.prod[pi*f32PanelCols:], j.sc.wT, ln.dstage, p.dxOfs, p.outC, p.dxHi, p.dxRows, ld, h0, h1)
		}
		return
	}
	// The tile becomes dcols = Wᵀ·dout, row q tap oc of the operand at
	// w[oc·kdim+q].
	bd := PackedF32{k: p.outC, n: ld, pw: f32PanelCols, panels: ld / f32PanelCols, data: ln.prod}
	matMulF32PackedSerial(ln.tile, j.w, &bd, p.kdim, 1, p.kdim)
}

func (j convF32Bwd) epilogue(t, lane int) {
	ln, i0, nb := j.task(t, lane)
	p, dx := j.p, j.dx[i0*j.p.inSz:(i0+nb)*j.p.inSz]
	if p.dxOfs == nil {
		col2imInto(dx, ln.tile, p.g, nb, 0, p.ld(nb), ln.stage)
		return
	}
	drainInto(dx, ln.prod, nil, nb, p.g.InC, p.s, p.ld(nb))
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
