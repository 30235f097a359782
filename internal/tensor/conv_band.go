package tensor

import "fmt"

// Band-resident float convolution: the training conv's one lowering, the
// float twin of ConvU8I8StripInto. No full-batch patch matrix exists in
// either direction. The unit of work is a sample band — the fewest whole
// samples whose output positions reach f32BandCols columns, clamped to
// the batch — and one band-driver task (runBands) owns a band end to end.
// Both directions first stage every channel of the band once into a
// per-lane zero-bordered strip (stageInto); a stride-2 conv stages each
// row as two column phases, even staged columns then odd, so each of its
// taps is a contiguous run too. A patch element is then one strip float,
// at the plan's row offset ofs[q] plus a column offset.
//
//   - forward runs the packed micro-kernels against the weights with the
//     band's patches as B and copies the product into the NCHW output with
//     the bias folded in. A conv of stride 1 or 2 with at least 4 output
//     channels reads each 16-column panel straight from the strip, as two
//     8-float halves or four 4-float quarters (strip-route kernels): it
//     computes its output rows padded to owp, OW rounded up to whole
//     4-column runs, over a strip wide enough for the padded columns, and
//     the drain copies OW of every owp columns. Every other conv (stride
//     above 2, fewer than 4 channels) first gathers the patches into
//     16-wide column panels of a per-lane tile;
//   - backward forms the band's weight-gradient partial dWᵀ = patches·doutᵀ
//     with the patches read from the strip (the small operand, dout, is the
//     one transposed into panels), over the real OH·OW positions. A conv of
//     stride 1 or 2 whose input is Stride times its output then stages the
//     band's dout into a second strip and reads dx off it, rows padded to
//     owp as in the forward (strip-route dx kernel): at stride 2 dx splits
//     into four phases (even/odd rows × columns), each a stride-1
//     correlation of the dout strip over the kernel taps that reach it,
//     interleaved into NCHW by the drain. Every other conv fills the lane
//     tile with the column gradients Wᵀ·dout and scatters them into dx
//     through the band-local col2im, which reuses the strip as its
//     accumulator.
//
// A strip read is the value a gather copies, in the same FMA order. The dx
// kernel sums one segment of outC taps per kernel tap (kh, kw) from zero —
// the column gradient, in the GEMM's FMA chain — and adds its phase's
// segments to +0 in (kh, kw) order, the scatter's order; a phase no tap
// reaches stays +0, and a tap in the dout strip's border adds the +0 the
// scatter skips. So dx is the scatter's bytes on every route, but for one
// edge: with a non-finite weight a border tap gives NaN (∞·0), as the
// forward's zero-padded gather already does.
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
	oh   int // output rows
	ow   int // output columns
	owp  int // the strip routes' output row width: OW rounded up to whole 4-column runs
	ps   int // the strip routes' output positions per sample: OH·owp
	inSz int // input floats per sample
	tpw  int // panel width of the doutᵀ operand: 8 up to 8 channels, else 16
	tld  int // outC rounded up to tpw: the row stride of a dWᵀ partial
	ph   int // column phases of the strip: 2 for a stride-2 conv off the gather route, else 1
	// ofs[q] is the strip offset of patch row q at column 0 — for tap
	// (c, kh, kw), c·sh·rl + kh·rl + (kw%ph)·pw + kw/ph with pw = ⌈sw/ph⌉
	// the phase width and rl = ph·pw the strip's row length — zero-padded
	// to whole dW row groups (dwRows(tpw)); they lie in [0, ofsHi].
	ofs    []int32
	ofsHi  int
	rw     int       // run width of the strip routes: 8 (halves) or 4 (quarters), dividing owp
	runs   []int32   // strip offset of column rw·h of the largest band; nil: the forward gathers
	dw     stripWalk // the weight-gradient kernels' k walk, nb set per band
	gather bool      // every product through the lane tile: convGatherOnly at build
	// dx route (nil dxOfs: dx scatters). Phase f = py·Stride+px of dx (rows
	// Stride·a+py, columns Stride·b+px) owns the taps dxTaps[dxTap[f]:
	// dxTap[f+1]] (kh·KW+kw, ascending); tap (kh, kw, oc) reads the dout
	// strip at oc·sh·sw + (pd+dy)·sw + pd+dx, (dy, dx) its shift onto dout.
	// The offsets lie in [0, dxHi], not ascending.
	dxOfs, dxRuns []int32 // dxRuns: runs of the dout strip
	dxTaps        []int32
	dxTap         []int // Stride²+1 phase bounds into dxTaps
	dxHi, dxRows  int   // dxRows: InC rounded up to 4
	pd            int   // the dout strip's border: the largest |dy| or |dx|
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
	p := &ConvPlanF32{g: g, outC: outC, kdim: g.InC * g.KH * g.KW, s: oh * ow, oh: oh, ow: ow, owp: outRowPad(ow), ps: oh * outRowPad(ow),
		inSz: g.InC * g.InH * g.InW, tpw: f32PanelCols, ph: 1}
	if outC <= f32PanelColsNarrow {
		p.tpw = f32PanelColsNarrow
	}
	p.tld = blocks(outC, p.tpw) * p.tpw
	p.gather = convGatherOnly
	if g.Stride == 2 && !p.gather {
		p.ph = 2
	}
	sh, sw := g.stageDims()
	pw := blocks(sw, p.ph)
	rl := p.ph * pw
	p.ofs = make([]int32, blocks(p.kdim, dwRows(p.tpw))*dwRows(p.tpw))
	for q := 0; q < p.kdim; q++ {
		c, kh, kw := q/(g.KH*g.KW), q/g.KW%g.KH, q%g.KW
		p.ofs[q] = int32(c*sh*rl + kh*rl + kw%p.ph*pw + kw/p.ph)
		p.ofsHi = max(p.ofsHi, int(p.ofs[q]))
	}
	p.dw = stripWalk{oh: oh, ow: ow, sps: g.InC * sh * rl, rs: g.Stride * rl, st: g.Stride / p.ph}
	p.rw = 8
	if p.owp%8 != 0 {
		p.rw = 4
	}
	// The route rule: a conv of stride 1 or 2 reads its forward panels off
	// the strip when it has at least 4 output channels, and each phase of
	// dx off a dout strip when its input is Stride times its output; every
	// other conv gathers its patches and scatters its column gradients.
	strip := g.Stride <= 2 && !p.gather
	if strip && outC >= 4 {
		p.runs = p.runsOf(p.dw.sps, p.dw.rs)
	}
	if strip && g.InH == g.Stride*oh && g.InW == g.Stride*ow {
		p.planDX()
	}
	return p, nil
}

// planDX builds the dx route's tables (see ConvPlanF32).
func (p *ConvPlanF32) planDX() {
	g, st := p.g, p.g.Stride
	phase := func(k int) int { return ((k-g.Pad)%st + st) % st } // the dx phase tap k lands in
	shift := func(k int) int { return (phase(k) + g.Pad - k) / st }
	for k := 0; k < max(g.KH, g.KW); k++ {
		p.pd = max(p.pd, shift(k), -shift(k))
	}
	sh, sw := p.doutGeom().stageDims()
	p.dxTap = make([]int, st*st+1)
	for f := 0; f < st*st; f++ {
		for t := 0; t < g.KH*g.KW; t++ {
			kh, kw := t/g.KW, t%g.KW
			if phase(kh)*st+phase(kw) != f {
				continue
			}
			p.dxTaps = append(p.dxTaps, int32(t))
			for oc := 0; oc < p.outC; oc++ {
				o := oc*sh*sw + (p.pd+shift(kh))*sw + p.pd + shift(kw)
				p.dxOfs = append(p.dxOfs, int32(o))
				p.dxHi = max(p.dxHi, o)
			}
		}
		p.dxTap[f+1] = len(p.dxTaps)
	}
	p.dxRuns = p.runsOf(p.outC*sh*sw, sw)
	p.dxRows = blocks(g.InC, 4) * 4
}

// runsOf is the run table of a strip with sps floats per sample and
// output rows rs apart: entry h is the offset of padded column rw·h of the
// largest band.
func (p *ConvPlanF32) runsOf(sps, rs int) []int32 {
	t := make([]int32, p.ldp(blocks(f32BandCols, p.s))/p.rw)
	for h := range t {
		il, r := p.rw*h/p.ps, p.rw*h%p.ps
		t[h] = int32(il*sps + r/p.owp*rs + r%p.owp)
	}
	return t
}

// runsAt is panel pi's runs from a run table; a run past a band of cols
// columns re-reads the panel's first (its product is never copied out).
func (p *ConvPlanF32) runsAt(t []int32, pi, cols int) stripRuns {
	r, n := stripRuns{w: p.rw}, f32PanelCols/p.rw
	for j := 0; j < n; j++ {
		r.b[j] = int(t[n*pi])
		if pi*f32PanelCols+j*p.rw < cols {
			r.b[j] = int(t[n*pi+j])
		}
	}
	return r
}

// doutGeom is the geometry of a dx-route band's dout strip: dout's planes
// inside a border of pd, staged as a stride-1 input.
func (p *ConvPlanF32) doutGeom() ConvGeom {
	return ConvGeom{InC: p.outC, InH: p.oh, InW: p.ow, KH: 2*p.pd + 1, KW: 2*p.pd + 1, Stride: 1, Pad: p.pd}
}

// stripLen is the float count of a band's input strip for nb samples:
// the strip routes' layout, or the gather's where the forward gathers.
func (p *ConvPlanF32) stripLen(nb int) int { return max(p.g.stageLen(nb), nb*p.dw.sps) }

// bandSamples is the band rule: whole samples per band for a batch of n.
func (p *ConvPlanF32) bandSamples(n int) int { return min(n, blocks(f32BandCols, p.s)) }

// ld is the tile row stride of a band of nb samples: its columns rounded
// up to whole panels.
func (p *ConvPlanF32) ld(nb int) int { return blocks(nb*p.s, f32PanelCols) * f32PanelCols }

// ldp is the row stride of a strip route's product for a band of nb
// samples: its padded columns rounded up to whole panels.
func (p *ConvPlanF32) ldp(nb int) int { return blocks(nb*p.ps, f32PanelCols) * f32PanelCols }

// prodRows is the row count of a lane's product: outC, or at least the
// Stride² phases of dxRows for a call that forms dx on the dx route.
func (p *ConvPlanF32) prodRows(dx bool) int {
	if dx && p.dxOfs != nil {
		return max(p.outC, p.dxRows*(len(p.dxTap)-1))
	}
	return p.outC
}

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
	wT    []float32 // dx route: per phase f, the weights as (dxRows, taps·outC), tap (kh, kw, oc) of row c; rows past InC zero
	acc   []float32 // outC band sums
	bias  bool      // this backward call forms the bias partials (its gb is not nil)
	skip  Skip      // this backward call's skip gradient
}

type convLaneF32 struct {
	tile   []float32 // kdim × ld: gather-route forward, the band's patches; scatter-route backward, its column gradients
	prod   []float32 // max(outC, Stride²·dxRows) × ldp: forward product; scatter-route backward, dout in column panels; dx route, dx's phases
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
func (sc *ConvScratchF32) bandsFor(p *ConvPlanF32, n int, backward, dx bool) (convBandsF32, int) {
	bs := p.bandSamples(n)
	bands := blocks(n, bs)
	nl := bandLanes(bands)
	if len(sc.lanes) < nl {
		sc.lanes = append(sc.lanes, make([]convLaneF32, nl-len(sc.lanes))...)
	}
	ld := p.ld(bs)
	for i := range sc.lanes[:nl] {
		ln := &sc.lanes[i]
		if p.runs == nil || dx && p.dxOfs == nil {
			ln.tile = grow(ln.tile, p.kdim*ld)
		}
		ln.prod = grow(ln.prod, p.prodRows(dx)*p.ldp(bs))
		ln.stage = grow(ln.stage, p.stripLen(bs))
		if backward {
			ln.doT = grow(ln.doT, ld*p.tld)
		}
		if dx && p.dxOfs != nil {
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
	b, bands := sc.bandsFor(p, n, false, false)
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
	if j.p.runs != nil {
		stageInto(ln.stage, x, j.p.g, nb, j.p.ph)
		return
	}
	im2colInto(ln.tile, x, j.p.g, nb, 0, f32PanelCols, ln.stage)
}

func (j convF32Fwd) compute(t, lane int) {
	ln, _, nb := j.task(t, lane)
	p, ld := j.p, j.p.ld(nb)
	if p.runs == nil {
		b := PackedF32{k: p.kdim, n: ld, pw: f32PanelCols, panels: ld / f32PanelCols, data: ln.tile}
		matMulF32PackedSerial(ln.prod, j.w, &b, p.outC, p.kdim, 1)
		return
	}
	ld = p.ldp(nb)
	for pi := 0; pi < ld/f32PanelCols; pi++ {
		f32StripPanel(ln.prod[pi*f32PanelCols:], j.w, ln.stage, p.ofs, p.outC, p.kdim, p.kdim, ld, p.ofsHi, p.runsAt(p.runs, pi, nb*p.ps))
	}
}

func (j convF32Fwd) epilogue(t, lane int) {
	ln, i0, nb := j.task(t, lane)
	p, owp, ld := j.p, j.p.ow, j.p.ld(nb)
	if p.runs != nil {
		owp, ld = p.owp, p.ldp(nb)
	}
	drainInto(j.out[i0*p.outC*p.s:], ln.prod, j.bias, Skip{}, nb, p.outC, p.oh, p.ow, owp, ld)
}

// drainInto copies rows r < c of a band's product (row stride ld; sample
// il's oh rows of ow positions from column il·oh·owp, owp apart) into nb
// NCHW samples of c planes, adding bias[r] unless bias is nil, or the skip
// gradient (dst at sk's offset) unless sk is zero.
func drainInto(dst, prod, bias []float32, sk Skip, nb, c, oh, ow, owp, ld int) {
	if ow == owp { // whole planes are contiguous
		oh, ow, owp = 1, oh*ow, oh*ow
	}
	for il := 0; il < nb; il++ {
		for r := 0; r < c; r++ {
			for y := 0; y < oh; y++ {
				o := ((il*c+r)*oh + y) * ow
				src, d := prod[r*ld+(il*oh+y)*owp:][:ow], dst[o:][:ow]
				switch {
				case sk.G != nil:
					sk.addTo(d, src, o)
				case bias == nil:
					copy(d, src)
				default:
					for k, v := range src {
						d[k] = v + bias[r]
					}
				}
			}
		}
	}
}

// Skip is a residual block's shortcut gradient, which a conv's backward
// adds to dx as it writes it: dx = fl(dmain + s), s = G, or G masked by
// the block output Y under R (R.pass) — nn's unfused gradient sum. G and
// Y are laid out as dx and do not overlap it; the zero Skip adds nothing.
type Skip struct {
	G, Y []float32
	R    Rect
	o    int // the offset in G and Y of the dx slice at hand
}

// addTo writes d[k] = a[k] + s at offset o+k, for the drain and the other
// routes' in-place pass alike. d may alias a.
func (s Skip) addTo(d, a []float32, o int) {
	var y []float32
	if s.R.on {
		y = s.Y[s.o+o:][:len(a)]
	}
	skipAdd(d[:len(a)], a, s.G[s.o+o:][:len(a)], y, s.R.top)
}

// ConvF32BackwardInto is the adjoint of ConvF32ForwardInto for the same x
// and w: dx (shaped like x) is overwritten with the input gradient plus
// skip (see Skip), and the weight gradient doutᵀ-contracted with the
// patches is accumulated into gw (outC, kdim), the per-channel sums of
// dout into gb (nil: no bias). The stride-1 dx drain adds the skip as it
// writes; other routes add it in place in the band's own task. A nil dx
// asks for gw and gb alone, the same bytes, and takes no skip.
func ConvF32BackwardInto(dx, gw, gb, x, dout []float32, n int, w []float32, p *ConvPlanF32, sc *ConvScratchF32, skip Skip) error {
	if err := p.check("conv backward", n, len(x), len(dout), min(len(w), len(gw))); err != nil {
		return err
	}
	if dx != nil && len(dx) < n*p.inSz || dx == nil && skip.G != nil {
		return fmt.Errorf("%w: conv backward dx has %d elements, want >= %d (nil: no skip)", ErrShape, len(dx), n*p.inSz)
	}
	if gb != nil && len(gb) < p.outC {
		return fmt.Errorf("%w: conv backward bias gradient has %d elements, want >= %d", ErrShape, len(gb), p.outC)
	}
	if skip.G != nil && (len(skip.G) < n*p.inSz || skip.R.on && len(skip.Y) < n*p.inSz) {
		return fmt.Errorf("%w: conv backward skip gradient has %d elements (block output %d), want >= %d", ErrShape, len(skip.G), len(skip.Y), n*p.inSz)
	}
	b, bands := sc.bandsFor(p, n, true, dx != nil)
	sc.bias, sc.skip = gb != nil, skip
	if p.dxOfs != nil && dx != nil {
		kk := p.g.KH * p.g.KW
		sc.wT = grow(sc.wT, p.dxRows*kk*p.outC)
		for f := 0; f+1 < len(p.dxTap); f++ {
			taps := p.dxTaps[p.dxTap[f]:p.dxTap[f+1]]
			wf := sc.wT[p.dxRows*p.dxTap[f]*p.outC:][:p.dxRows*len(taps)*p.outC]
			clear(wf[p.g.InC*len(taps)*p.outC:])
			for c := 0; c < p.g.InC; c++ {
				for t, tap := range taps {
					for oc := 0; oc < p.outC; oc++ {
						wf[(c*len(taps)+t)*p.outC+oc] = w[oc*p.kdim+c*kk+int(tap)]
					}
				}
			}
		}
	}
	runBands(convF32Bwd{convBandsF32: b, dx: dx, x: x, dout: dout, w: w}, bands, nil)
	// Band order, one accumulator per element — a row of them at a time,
	// so a row's chains run side by side: the same bytes whichever worker
	// produced which partial.
	pl := p.partLen()
	sc.acc = grow(sc.acc, p.outC)
	sum := func(o int) []float32 { // the band sums of the partials' outC floats at o
		clear(sc.acc)
		for t := 0; t < bands; t++ {
			for oc, v := range sc.part[t*pl+o:][:p.outC] {
				sc.acc[oc] += v
			}
		}
		return sc.acc
	}
	for q := 0; q < p.kdim; q++ {
		for oc, v := range sum(q * p.tld) {
			gw[oc*p.kdim+q] += v
		}
	}
	if gb != nil {
		for oc, v := range sum(len(p.ofs) * p.tld) {
			gb[oc] += v
		}
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
		stageInto(ln.stage, x, p.g, nb, p.ph)
	}
	// dout fills the doutᵀ panels (fillDoutT), the bias partial (a serial
	// sum, skipped when no bias wants it) and, on the scatter route, the
	// column panels for Wᵀ·dout; the dx route stages it instead.
	dout := j.dout[i0*outC*s : (i0+nb)*outC*s]
	if p.dxOfs != nil && j.dx != nil {
		stageInto(ln.dstage, dout, p.doutGeom(), nb, 1)
	}
	fillDoutT(ln.doT[:cols*p.tld], dout, outC, s, nb, p.tpw)
	for oc := 0; oc < outC; oc++ {
		var sum float32
		for il := 0; il < nb; il++ {
			src := dout[(il*outC+oc)*s:][:s]
			if p.dxOfs == nil && j.dx != nil {
				putPanelRun(ln.prod, src, outC, oc, il*s)
			}
			if j.sc.bias {
				for _, v := range src {
					sum += v
				}
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
			f32StripDW(part[pi*p.tpw:], ln.stage, p.ofs, p.ofsHi, ln.doT[pi*cols*p.tpw:], p.tpw, walk, p.tld)
		}
	}
	if j.dx == nil {
		return
	}
	if p.dxOfs != nil {
		// Phase by phase over padded rows; the running sums start at +0,
		// and stay there in a phase no tap reaches.
		ld = p.ldp(nb)
		clear(ln.prod[:(len(p.dxTap)-1)*p.dxRows*ld])
		for f := 0; f+1 < len(p.dxTap); f++ {
			t0, t1 := p.dxTap[f]*p.outC, p.dxTap[f+1]*p.outC
			if t0 == t1 {
				continue
			}
			wf, dst := j.sc.wT[p.dxRows*t0:][:p.dxRows*(t1-t0)], ln.prod[f*p.dxRows*ld:]
			for pi := 0; pi < ld/f32PanelCols; pi++ {
				f32StripDX(dst[pi*f32PanelCols:], wf, ln.dstage, p.dxOfs[t0:t1], p.outC, p.dxHi, p.dxRows, ld, p.runsAt(p.dxRuns, pi, nb*p.ps))
			}
		}
		return
	}
	// The tile becomes dcols = Wᵀ·dout, row q tap oc of the operand at
	// w[oc·kdim+q].
	bd := PackedF32{k: p.outC, n: ld, pw: f32PanelCols, panels: ld / f32PanelCols, data: ln.prod}
	matMulF32PackedSerial(ln.tile, j.w, &bd, p.kdim, 1, p.kdim)
}

func (j convF32Bwd) epilogue(t, lane int) {
	if j.dx == nil {
		return
	}
	ln, i0, nb := j.task(t, lane)
	p, dx, sk := j.p, j.dx[i0*j.p.inSz:(i0+nb)*j.p.inSz], j.sc.skip
	sk.o = i0 * p.inSz
	if p.dxOfs != nil && p.g.Stride == 1 {
		drainInto(dx, ln.prod, nil, sk, nb, p.g.InC, p.oh, p.ow, p.owp, p.ldp(nb))
		return
	}
	if sk.G != nil { // once the band's dx is written
		defer sk.addTo(dx, dx, 0)
	}
	if p.dxOfs == nil {
		col2imInto(dx, ln.tile, p.g, nb, 0, p.ld(nb), ln.stage)
		return
	}
	ld := p.ldp(nb)
	// Stride 2: row 2a+py of a plane interleaves row a of phases (py, 0)
	// and (py, 1), whole 4-column steps through interleave and the last
	// OW%4 columns here.
	n4, ds, hw := p.ow&^3, 2*p.g.InW, p.g.InH*p.g.InW
	for il := 0; il < nb; il++ {
		for c := 0; c < p.g.InC; c++ {
			for py := 0; py < 2; py++ {
				d, e := dx[(il*p.g.InC+c)*hw+py*p.g.InW:], ln.prod[(2*py*p.dxRows+c)*ld+il*p.ps:]
				o := e[p.dxRows*ld:]
				if n4 > 0 {
					interleave(d, e, o, n4, p.oh, p.owp, ds)
				}
				for a := 0; a < p.oh; a++ {
					for b := n4; b < p.ow; b++ {
						d[a*ds+2*b], d[a*ds+2*b+1] = e[a*p.owp+b], o[a*p.owp+b]
					}
				}
			}
		}
	}
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
