package tensor

import (
	"encoding/binary"
	"fmt"
	"time"
)

// The int8 conv: one plan, one band driver, two layouts.
//
// The engine's conv (ConvU8I8StripInto) runs on NHWC uint8 activations.
// Each band task of a few output rows stages the input rows its receptive
// fields cover, with the activation zero point as border, into a row
// strip — one copy per input row — and the packed u8×s8 micro-kernels
// read every output position's GEMM row straight off that strip: kernel
// row kh of position (oy, ox) is one run of KW·C bytes at
// (oy·S + kh)·RS + ox·S·C (RS the staged row's (W+2·Pad)·C bytes), so a
// position is KH runs one staged row apart and the weights are packed in
// k order (kh, kw, c). When KW·C is not a multiple of 4 (a 3-channel
// stem) those runs would split the kernels' 4-tap quads, so the strip is
// folded instead: staged column x of output row oy holds its KH input
// rows' C bytes, a position is one run of KW·KH·C bytes and k runs
// (kw, kh, c). Either way k and the packed panel count are the NCHW
// im2col's, and a border tap reads Z_x, exact float zero, so subtracting
// Z_x·Σq_w is the exact zero-point correction at every position. The
// band's int32 tile is position-major, which is the NHWC output order,
// so its epilogue requantizes rows (RequantQ31Rows) with no transpose.
//
// ConvU8I8ImplicitInto is the NCHW form the strip route replaced, kept
// as a portable oracle and kernel benchmark: each band gathers its patch
// rows tap by tap in k order (c, kh, kw) and runs the same kernels with
// one run per row.

// implicitBandTarget is the output-position count one band aims for:
// enough rows that the 4-row micro-kernels amortize their panel loads
// across a long m, small enough that a band's strip and int32 tile stay
// cache resident for every conv shape in the zoo.
const implicitBandTarget = 128

// implicitBandBytes caps a band's strip; bands shrink to fit (a band
// never shrinks below one output row).
const implicitBandBytes = 48 << 10

// ConvPlanU8 is the compile-time schedule of the int8 conv: the geometry
// with the strip layout, the operand walk its kernels take and the
// output-row banding resolved once. Plans are immutable and shared
// across concurrent calls.
type ConvPlanU8 struct {
	g      ConvGeom
	oh, ow int
	kdim   int // InC·KH·KW
	brows  int // output rows per band
	bands  int // bands per sample: ceil(oh/brows)
	fold   bool
	rstep  int   // staged rows per output row: min(Stride, KH), 1 folded
	srow   int   // staged row bytes: (InW+2·Pad)·InC, ·KH folded (see NewConvPlanU8)
	strip  int   // a full band's strip bytes, + QuadPad for the last run's quad
	walk   aWalk // operand walk of a band (m set per band)
}

// NewConvPlanU8 builds the int8 conv schedule for a geometry.
func NewConvPlanU8(g ConvGeom) (*ConvPlanU8, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	oh, ow := g.OutHW()
	c := g.InC
	// A staged row spans the padded input, or the columns the last
	// position reads when a kernel overhangs it (OutHW rounds down).
	p := &ConvPlanU8{g: g, oh: oh, ow: ow, kdim: c * g.KH * g.KW,
		fold: g.KW*c%4 != 0, rstep: min(g.Stride, g.KH), srow: max(g.InW+2*g.Pad, (ow-1)*g.Stride+g.KW) * c}
	if p.fold {
		p.rstep, p.srow = 1, p.srow*g.KH
		p.walk = aWalk{ow: ow, lda: g.Stride * g.KH * c, rs: p.srow, segq: (p.kdim + 3) / 4, nseg: 1}
	} else {
		p.walk = aWalk{ow: ow, lda: g.Stride * c, rs: p.rstep * p.srow, segq: g.KW * c / 4, nseg: g.KH, sst: p.srow}
	}
	stripBytes := func(brows int) int { return p.stagedRows(brows)*p.srow + QuadPad }
	brows := (implicitBandTarget + ow - 1) / ow
	for brows > 1 && stripBytes(brows) > implicitBandBytes {
		brows--
	}
	p.brows = min(brows, oh)
	p.bands = (oh + p.brows - 1) / p.brows
	p.strip = stripBytes(p.brows)
	return p, nil
}

// stagedRows is the strip height of a band of rows output rows.
func (p *ConvPlanU8) stagedRows(rows int) int {
	if p.fold {
		return rows
	}
	return (rows-1)*p.rstep + p.g.KH
}

// Geom returns the plan's conv geometry.
func (p *ConvPlanU8) Geom() ConvGeom { return p.g }

// Fold reports whether the plan folds its strip (KW·InC not a multiple
// of 4): one run of k order (kw, kh, c) per position instead of KH runs.
func (p *ConvPlanU8) Fold() bool { return p.fold }

// Bands returns the number of bands per sample.
func (p *ConvPlanU8) Bands() int { return p.bands }

// BandLen returns the byte length of one ConvU8I8ImplicitInto gather
// lane: a full band of NCHW patch rows plus the QuadPad spare bytes the
// packed kernels may read past the last row (they multiply zero weights;
// see PackedI8.PaddedK).
func (p *ConvPlanU8) BandLen() int { return p.brows*p.ow*p.kdim + QuadPad }

// PackWeights packs an (outC, InC, KH, KW) int8 weight tensor for
// ConvU8I8StripInto: each filter is reordered into the k order the
// strip's runs read — (kh, kw, c), or (kw, kh, c) when folded — and
// packed with PackI8PanelsBT, whose pack-time saturation routing then
// sees the pairs the kernels will fuse.
func (p *ConvPlanU8) PackWeights(w []int8, outC int) (*PackedI8, error) {
	if err := checkPackI8("packStrip", len(w), p.kdim, outC); err != nil {
		return nil, err
	}
	g := p.g
	bt := make([]int8, outC*p.kdim)
	for o := 0; o < outC; o++ {
		src, dst := w[o*p.kdim:(o+1)*p.kdim], bt[o*p.kdim:(o+1)*p.kdim]
		for c := 0; c < g.InC; c++ {
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					k := (kh*g.KW+kw)*g.InC + c
					if p.fold {
						k = (kw*g.KH+kh)*g.InC + c
					}
					dst[k] = src[(c*g.KH+kh)*g.KW+kw]
				}
			}
		}
	}
	return packI8(bt, p.kdim, outC), nil
}

// ConvU8I8StripInto is one quantized conv layer on NHWC payloads: src
// (n, InH, InW, InC) → dst (n, OH, OW, outC). b holds the weights packed
// by p.PackWeights; pad is the input zero point. Each band task stages
// its strip into a lane of work, accumulates every weight panel into the
// lane's int32 tile and requantizes the tile (RequantQ31Rows through r,
// one channel per output channel) into its rows of dst, so no full-batch
// accumulator exists. work and tile are the caller's lane arenas, grown
// here as needed. A non-nil clock runs serially and accrues staging /
// GEMM / requant time into clock[0..2]; the output bytes do not change.
func ConvU8I8StripInto(dst, src []uint8, n int, b *PackedI8, p *ConvPlanU8, pad uint8,
	r *Requant, work *[]uint8, tile *[]int32, clock *[3]time.Duration) error {
	if err := p.check(src, n, b); err != nil {
		return err
	}
	if len(r.m0) != b.n {
		return fmt.Errorf("%w: conv strip requant has %d channels, want %d", ErrShape, len(r.m0), b.n)
	}
	if len(dst) < n*p.oh*p.ow*b.n {
		return fmt.Errorf("%w: conv strip dst has %d elements, want >= %d", ErrShape, len(dst), n*p.oh*p.ow*b.n)
	}
	tasks := n * p.bands
	lanes := bandLanes(tasks)
	j := convU8Job{p: p, b: b, src: src, pad: pad, wl: p.strip, tl: p.brows * p.ow * b.n,
		dst: dst, rq: r}
	*work = grow(*work, lanes*j.wl)
	*tile = grow(*tile, lanes*j.tl)
	j.work, j.tile = *work, *tile
	runBands(j, tasks, clock)
	return nil
}

// ConvU8I8ImplicitInto computes the conv GEMM acc = patches(src)·b for a
// quantized NCHW batch (n samples, plan geometry) with b packed from the
// (outC, InC·KH·KW) weights by PackI8PanelsBT: each (sample, band) task
// gathers its patch rows into a lane of work and runs every weight panel
// against them. acc is the position-major accumulator ((N·OH·OW, outC),
// fully overwritten). Out-of-bounds taps read as pad. work provides the
// gather lanes: min(MaxWorkers(), n·plan.Bands()) × plan.BandLen() bytes.
func ConvU8I8ImplicitInto(acc []int32, src []uint8, n int, b *PackedI8, p *ConvPlanU8, pad uint8, work []uint8) error {
	if err := p.check(src, n, b); err != nil {
		return err
	}
	if len(acc) < n*p.oh*p.ow*b.n {
		return fmt.Errorf("%w: conv implicit acc has %d elements, want >= %d", ErrShape, len(acc), n*p.oh*p.ow*b.n)
	}
	tasks := n * p.bands
	if lanes := bandLanes(tasks); len(work) < lanes*p.BandLen() {
		return fmt.Errorf("%w: conv implicit work has %d bytes, want >= %d (%d lanes × %d)",
			ErrShape, len(work), lanes*p.BandLen(), lanes, p.BandLen())
	}
	runBands(convU8Job{p: p, b: b, src: src, pad: pad, work: work, wl: p.BandLen(), acc: acc}, tasks, nil)
	return nil
}

// check validates the operands both int8 entry points share.
func (p *ConvPlanU8) check(src []uint8, n int, b *PackedI8) error {
	if n <= 0 {
		return fmt.Errorf("%w: int8 conv batch size %d", ErrShape, n)
	}
	if b.k != p.kdim {
		return fmt.Errorf("%w: int8 conv packed k %d != plan kdim %d", ErrShape, b.k, p.kdim)
	}
	if inSz := p.g.InC * p.g.InH * p.g.InW; len(src) < n*inSz {
		return fmt.Errorf("%w: int8 conv src has %d elements, want >= %d", ErrShape, len(src), n*inSz)
	}
	return nil
}

// convU8Job is the int8 band job: lane l stages (or, with acc set,
// gathers NCHW patch rows) into work[l·wl:] and accumulates into
// tile[l·tl:], which the epilogue requantizes into dst — or into the
// band's rows of the full accumulator acc, with no epilogue.
type convU8Job struct {
	p    *ConvPlanU8
	b    *PackedI8
	src  []uint8
	pad  uint8
	work []uint8
	wl   int // lane stride, >= one band's strip or patch rows
	acc  []int32
	tile []int32
	tl   int // tile lane stride, >= one band's positions × outC
	dst  []uint8
	rq   *Requant
}

// lane returns lane l of the work arena cut to what a band uses, so a
// kernel read past it fails the kernel's bounds pin.
func (j convU8Job) lane(l int) []uint8 {
	n := j.p.strip
	if j.acc != nil {
		n = j.p.BandLen()
	}
	return j.work[l*j.wl:][:n]
}

func (j convU8Job) gather(t, lane int) {
	p := j.p
	i, oy0, oy1 := p.bandSpan(t)
	inSz := p.g.InC * p.g.InH * p.g.InW
	img, buf := j.src[i*inSz:(i+1)*inSz], j.lane(lane)
	if j.acc != nil {
		p.gatherPatches(buf, img, j.pad, oy0, oy1)
		return
	}
	p.stage(buf, img, j.pad, oy0, oy1)
}

func (j convU8Job) compute(t, lane int) {
	p, b := j.p, j.b
	i, oy0, oy1 := p.bandSpan(t)
	m := (oy1 - oy0) * p.ow
	d, w := j.tile[lane*j.tl:], p.walk
	w.m = m
	if j.acc != nil {
		d, w = j.acc[(i*p.oh+oy0)*p.ow*b.n:], aWalk{m: m, ow: m, lda: p.kdim, segq: b.kq, nseg: 1}
	}
	buf := j.lane(lane)
	for pi := 0; pi < b.panels; pi++ {
		runPackedPanel(d, buf, b, pi, w, b.n)
	}
}

func (j convU8Job) epilogue(t, lane int) {
	if j.acc != nil {
		return
	}
	p, nc := j.p, j.b.n
	i, oy0, oy1 := p.bandSpan(t)
	m := (oy1 - oy0) * p.ow
	RequantQ31Rows(j.dst[(i*p.oh+oy0)*p.ow*nc:], j.tile[lane*j.tl:], j.rq, m, nc, nc)
}

// bandSpan resolves task t into its sample index and output-row range.
func (p *ConvPlanU8) bandSpan(t int) (i, oy0, oy1 int) {
	i, oy0 = t/p.bands, t%p.bands*p.brows
	return i, oy0, min(oy0+p.brows, p.oh)
}

// stage copies the receptive-field rows of output rows [oy0, oy1) of one
// NHWC image into strip. Staged row r of an unfolded strip is input row
// oy0·S − Pad + (r / rstep)·S + r mod rstep — every row when KH ≥ S, only
// the rows a kernel row reads when KH < S — with Pad·C border bytes on
// the left and the rest of the row border; a row outside the image is
// all border. A folded strip stages one row per output row (foldRow).
func (p *ConvPlanU8) stage(strip, img []uint8, pad uint8, oy0, oy1 int) {
	g := p.g
	rc, border := g.InW*g.InC, g.Pad*g.InC
	if p.fold {
		for j := 0; j < oy1-oy0; j++ {
			p.foldRow(strip[j*p.srow:], img, pad, (oy0+j)*g.Stride-g.Pad)
		}
		return
	}
	for r := 0; r < p.stagedRows(oy1-oy0); r++ {
		row := strip[r*p.srow : (r+1)*p.srow]
		iy := oy0*g.Stride - g.Pad + r/p.rstep*g.Stride + r%p.rstep
		if iy < 0 || iy >= g.InH {
			fillU8(row, pad)
			continue
		}
		fillU8(row[:border], pad)
		copy(row[border:border+rc], img[iy*rc:(iy+1)*rc])
		fillU8(row[border+rc:], pad)
	}
}

// foldRow stages the folded strip row whose kernel rows start at input
// row iy0 into dst: staged column x holds, for kh = 0 … KH−1, the C
// bytes of input pixel (iy0 + kh, x − Pad), or C border bytes. Kernel
// rows are staged in ascending order, so a pixel of C ≤ 4 bytes moves as
// one 4-byte word wherever the word's spill stays inside its column's
// later kernel rows (and the word ends inside its input row); the rest
// are copied.
func (p *ConvPlanU8) foldRow(dst, img []uint8, pad uint8, iy0 int) {
	c, w, kh := p.g.InC, p.g.InW, p.g.KH
	rc, kc, left := w*c, kh*c, p.g.Pad*kh*c
	fillU8(dst[:left], pad)
	fillU8(dst[left+w*kc:p.srow], pad)
	for r := 0; r < kh; r++ {
		d := dst[left+r*c : left+w*kc]
		iy := iy0 + r
		if iy < 0 || iy >= p.g.InH {
			for o := 0; o < len(d); o += kc {
				fillU8(d[o:o+c], pad)
			}
			continue
		}
		src := img[iy*rc : (iy+1)*rc]
		s, o := 0, 0
		if c <= 4 && r*c+4 <= kc {
			for ; s+4 <= rc; s, o = s+c, o+kc {
				putU32(d[o:], getU32(src[s:]))
			}
		}
		for ; s < rc; s, o = s+c, o+kc {
			copy(d[o:o+c], src[s:s+c])
		}
	}
}

// fillU8 sets every byte of b to v, eight at a time.
func fillU8(b []uint8, v uint8) {
	v8 := uint64(v) * 0x0101010101010101
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], v8)
	}
	for ; i < len(b); i++ {
		b[i] = v
	}
}

// getU32 / putU32 move one 4-byte word; encoding/binary's fixed-width
// forms compile to single unaligned loads and stores.
func getU32(b []uint8) uint32    { return binary.LittleEndian.Uint32(b) }
func putU32(b []uint8, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// gatherPatches writes the NCHW patch rows of output rows [oy0, oy1) of
// one image, tap by tap in k order (c, kh, kw), into buf.
func (p *ConvPlanU8) gatherPatches(buf, img []uint8, pad uint8, oy0, oy1 int) {
	g := p.g
	d := 0
	for oy := oy0; oy < oy1; oy++ {
		for ox := 0; ox < p.ow; ox++ {
			for c := 0; c < g.InC; c++ {
				for kh := 0; kh < g.KH; kh++ {
					iy := oy*g.Stride + kh - g.Pad
					for kw := 0; kw < g.KW; kw++ {
						ix := ox*g.Stride + kw - g.Pad
						v := pad
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							v = img[(c*g.InH+iy)*g.InW+ix]
						}
						buf[d] = v
						d++
					}
				}
			}
		}
	}
}
