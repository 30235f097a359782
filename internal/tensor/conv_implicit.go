package tensor

import (
	"encoding/binary"
	"fmt"
)

// Band-gather integer convolution: the int8 engine's one conv lowering.
// The conv GEMM consumes NCHW uint8 activations in place; no patch matrix
// is ever materialized.
//
// A batch-wide im2col would write N·OH·OW·C·KH·KW patch bytes to a
// scratch arena and immediately stream them back — for the CIFAR-scale
// serving models that buffer is multiple megabytes per call, so every
// activation byte would round-trip RAM KH·KW times before the kernels
// ever saw it. The driver instead walks the activation tensor directly
// with the precomputed (tap, row, col) strides of a ConvPlanU8: output
// positions are processed in bands of a few output rows, each band's
// receptive fields gathered into a small per-worker buffer sized to stay
// L1/L2-resident, and all weight panels run against the band while it is
// hot. Out-of-bounds taps gather as the activation zero point, which
// represents exact float zero, so the consuming GEMM needs no border
// special-casing: subtracting Z_x·Σq_w over the full kernel is the exact
// zero-point correction at every output position. 3×3 geometries gather
// through a zero-point-padded staging strip (gatherBand3); every other
// kernel shape — 1×1, 5×5, non-square — through the generic row gather
// (im2colU8PatchRow). Any stride takes either route.
//
// The micro-kernels are the packed GEMM's own: runPackedPanel dispatches
// the same 4×8 fast/widening/edge kernels over the band with lda = kdim,
// so SIMD and portable dispatch stay bit-identical.
//
// The serial path (one lane) is a plain loop that creates no ParallelFor
// closure: the inference engine's zero-allocation contract counts on it
// (a closure passed to ParallelFor escapes to the heap; a direct call
// does not).

// implicitBandTarget is the output-position count one gather band aims
// for: enough rows that the 4-row micro-kernels amortize their panel
// loads across a long m, small enough that band·kdim bytes stay cache
// resident for every conv shape in the zoo.
const implicitBandTarget = 128

// implicitBandBytes caps the gather buffer; bands shrink to fit (a band
// never shrinks below one output row — a single row of a huge conv still
// beats materializing the whole batch).
const implicitBandBytes = 48 << 10

// ConvPlanU8 is the compile-time gather schedule of the implicit-im2col
// conv driver: the conv geometry with everything the per-call hot loop
// would otherwise rederive — patch row width, the interior output-column
// range (every tap in-bounds) and the output-row banding — resolved
// once. Plans are immutable and shared across concurrent calls.
type ConvPlanU8 struct {
	g        ConvGeom
	oh, ow   int
	kdim     int // patch row width: InC·KH·KW
	xlo, xhi int // interior output columns (see im2colXRange)
	brows    int // output rows gathered per band
	bands    int // bands per sample: ceil(oh/brows)
	// 3×3 staged-gather layout (zero when KH·KW ≠ 3×3): each band first
	// copies its receptive-field rows into a zero-point-padded staging
	// strip — vertical and horizontal padding pre-materialized — so the
	// per-position compose loop (and the SIMD pack kernel) runs with
	// unconditional word loads over every output column, no border or
	// tail branches anywhere in the band.
	srw   int // staged row width: InW + 2·Pad + word-load slack
	sbr   int // staged rows per full band: (brows-1)·Stride + KH
	stage int // staging strip bytes: InC·sbr·srw
}

// NewConvPlanU8 builds the implicit-im2col schedule for a geometry.
func NewConvPlanU8(g ConvGeom) (*ConvPlanU8, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	oh, ow := g.OutHW()
	kdim := g.InC * g.KH * g.KW
	xlo, xhi := im2colXRange(g, ow)
	fast3 := g.KH == 3 && g.KW == 3
	srw := g.InW + 2*g.Pad + 4
	stageBytes := func(brows int) int {
		if !fast3 {
			return 0
		}
		return g.InC * ((brows-1)*g.Stride + g.KH) * srw
	}
	brows := (implicitBandTarget + ow - 1) / ow
	for brows > 1 && brows*ow*kdim+stageBytes(brows) > implicitBandBytes {
		brows--
	}
	if brows > oh {
		brows = oh
	}
	p := &ConvPlanU8{
		g: g, oh: oh, ow: ow,
		kdim: kdim, xlo: xlo, xhi: xhi,
		brows: brows,
		bands: (oh + brows - 1) / brows,
	}
	if fast3 {
		p.srw = srw
		p.sbr = (brows-1)*g.Stride + g.KH
		p.stage = g.InC * p.sbr * srw
	}
	return p, nil
}

// Geom returns the plan's conv geometry.
func (p *ConvPlanU8) Geom() ConvGeom { return p.g }

// Bands returns the number of gather bands per sample.
func (p *ConvPlanU8) Bands() int { return p.bands }

// BandRows returns the output rows gathered per band (the last band of a
// sample may cover fewer).
func (p *ConvPlanU8) BandRows() int { return p.brows }

// BandLen returns the byte length of one gather lane: a full band of
// patch rows, the 3 spare bytes the packed kernels may read past the
// last row (they multiply zero weights; see PackedI8.PaddedK), and — for
// 3×3 geometries — the padded staging strip the band gather copies its
// receptive-field rows into.
func (p *ConvPlanU8) BandLen() int { return p.brows*p.ow*p.kdim + 3 + p.stage }

// ConvU8I8ImplicitInto computes the conv GEMM acc = patches(src)·b for a
// quantized NCHW batch (n samples, plan geometry) without materializing
// the patch matrix: each (sample, output-row band) task gathers its
// receptive fields into a lane of work and runs every weight panel of b
// against the band in place. acc is the position-major accumulator
// ((N·OH·OW, outC), fully overwritten), sample-major so batched results
// are bit-identical to per-sample runs. Out-of-bounds taps read as pad
// (the activation zero point). work provides the gather lanes:
// min(MaxWorkers(), n·plan.Bands()) × plan.BandLen() bytes, owned by the
// caller so steady-state calls allocate nothing.
func ConvU8I8ImplicitInto(acc []int32, src []uint8, n int, b *PackedI8, p *ConvPlanU8, pad uint8, work []uint8) error {
	if n <= 0 {
		return fmt.Errorf("%w: conv implicit batch size %d", ErrShape, n)
	}
	if b.k != p.kdim {
		return fmt.Errorf("%w: conv implicit packed k %d != plan kdim %d", ErrShape, b.k, p.kdim)
	}
	inSz := p.g.InC * p.g.InH * p.g.InW
	if len(src) < n*inSz {
		return fmt.Errorf("%w: conv implicit src has %d elements, want >= %d", ErrShape, len(src), n*inSz)
	}
	if len(acc) < n*p.oh*p.ow*b.n {
		return fmt.Errorf("%w: conv implicit acc has %d elements, want >= %d", ErrShape, len(acc), n*p.oh*p.ow*b.n)
	}
	tasks := n * p.bands
	lanes := maxWorkers
	if lanes > tasks {
		lanes = tasks
	}
	if len(work) < lanes*p.BandLen() {
		return fmt.Errorf("%w: conv implicit work has %d bytes, want >= %d (%d lanes × %d)",
			ErrShape, len(work), lanes*p.BandLen(), lanes, p.BandLen())
	}
	if lanes == 1 {
		buf := work[:p.BandLen()]
		for t := 0; t < tasks; t++ {
			m := p.GatherBandInto(buf, src, pad, t)
			p.GEMMBand(acc, buf, b, t, m)
		}
		return nil
	}
	bl := p.BandLen()
	ParallelForWorker(tasks, func(t, lane int) {
		buf := work[lane*bl : (lane+1)*bl]
		m := p.GatherBandInto(buf, src, pad, t)
		p.GEMMBand(acc, buf, b, t, m)
	})
	return nil
}

// bandSpan resolves task t into its sample index and output-row range.
func (p *ConvPlanU8) bandSpan(t int) (i, oy0, oy1 int) {
	i, band := t/p.bands, t%p.bands
	oy0 = band * p.brows
	oy1 = oy0 + p.brows
	if oy1 > p.oh {
		oy1 = p.oh
	}
	return i, oy0, oy1
}

// GatherBandInto packs task t's receptive fields (sample t/Bands(),
// band t%Bands() of its output rows) into buf and returns the band's
// position count m. It is one half of ConvU8I8ImplicitInto's band task,
// exported (with GEMMBand) so the serving engine's profiled forward can
// time the gather and the GEMM separately; the driver entry point is the
// validated way in, and buf must hold BandLen() bytes.
func (p *ConvPlanU8) GatherBandInto(buf, src []uint8, pad uint8, t int) int {
	i, oy0, oy1 := p.bandSpan(t)
	inSz := p.g.InC * p.g.InH * p.g.InW
	img := src[i*inSz : (i+1)*inSz]
	if p.stage != 0 {
		p.gatherBand3(buf, img, pad, oy0, oy1)
		return (oy1 - oy0) * p.ow
	}
	rowLen := p.ow * p.kdim
	for oy := oy0; oy < oy1; oy++ {
		im2colU8PatchRow(buf[(oy-oy0)*rowLen:][:rowLen], img, p.g, pad, oy, p.xlo, p.xhi)
	}
	return (oy1 - oy0) * p.ow
}

// im2colXRange computes the interior output-column range [xlo, xhi] of a
// conv geometry: the columns where every kernel tap reads in-bounds. The
// range may be empty (a kernel wider than InW+Pad, e.g. a 7×7 over a
// tiny feature map): it is clamped to [xlo, xlo-1] so the edge loops
// cover every column and neither starts below zero. A negative numerator
// means NO column is interior — it must not go through Go's toward-zero
// division, which would round (−1)/2 up to 0 and admit an out-of-bounds
// column into the unrolled fast path.
func im2colXRange(g ConvGeom, ow int) (xlo, xhi int) {
	xlo = (g.Pad + g.Stride - 1) / g.Stride
	if xlo > ow {
		xlo = ow
	}
	xhi = -1
	if num := g.InW - g.KW + g.Pad; num >= 0 {
		xhi = num / g.Stride
	}
	if xhi > ow-1 {
		xhi = ow - 1
	}
	if xhi < xlo-1 {
		xhi = xlo - 1
	}
	return xlo, xhi
}

// im2colU8PatchRow packs one output row's ow patch rows into rows
// (ow·kdim bytes): the band gather of every kernel shape but 3×3. The
// loop nest runs (channel, kernel row) outermost with the output COLUMN
// innermost, so all per-row decisions — the vertical padding case, the
// source row slice, the interior x range — are hoisted out of the inner
// loop, which then does nothing but direct stores from a sliding source
// window (with the naive position-major nest the gather cost more than
// the GEMM it feeds).
//
// Interior segments of 5-wide kernels go through 8-byte copies wherever
// both ends are safe: the source word must not read past the input row
// (sx+8 ≤ InW; a scalar tail covers the rest), and the store's spill
// bytes — an 8-byte store of a 5-byte segment lands three bytes into
// offset p+KW, the first bytes of the NEXT tap row at the same position —
// are only allowed when that tap row is still unwritten, i.e. on every
// tap row except the last (the last row's spill would land in the next
// position's already-written tap row 0, so it stays scalar).
func im2colU8PatchRow(rows, img []uint8, g ConvGeom, pad uint8, oy, xlo, xhi int) {
	kdim := g.InC * g.KH * g.KW
	ow := len(rows) / kdim
	p := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			iy := oy*g.Stride + kh - g.Pad
			if iy < 0 || iy >= g.InH {
				for ox := 0; ox < ow; ox++ {
					seg := rows[ox*kdim+p:][:g.KW]
					for t := range seg {
						seg[t] = pad
					}
				}
				p += g.KW
				continue
			}
			srow := img[base+iy*g.InW : base+(iy+1)*g.InW]
			edge := func(ox int) { // per-tap checks, left/right borders only
				ix0 := ox*g.Stride - g.Pad
				seg := rows[ox*kdim+p:][:g.KW]
				for t := range seg {
					if ix := ix0 + t; ix < 0 || ix >= g.InW {
						seg[t] = pad
					} else {
						seg[t] = srow[ix]
					}
				}
			}
			for ox := 0; ox < xlo; ox++ {
				edge(ox)
			}
			// Interior: incremented indices only — no per-iteration
			// slicing, one multiply-free sliding window.
			ox := xlo
			d := xlo*kdim + p
			sx := xlo*g.Stride - g.Pad
			switch g.KW {
			case 5:
				if p+5 < kdim {
					for ; ox <= xhi && sx+8 <= g.InW; ox++ {
						putU64(rows[d:d+8], getU64(srow[sx:sx+8]))
						d += kdim
						sx += g.Stride
					}
				}
				for ; ox <= xhi; ox++ {
					rows[d] = srow[sx]
					rows[d+1] = srow[sx+1]
					rows[d+2] = srow[sx+2]
					rows[d+3] = srow[sx+3]
					rows[d+4] = srow[sx+4]
					d += kdim
					sx += g.Stride
				}
			case 1:
				for ; ox <= xhi; ox++ {
					rows[d] = srow[sx]
					d += kdim
					sx += g.Stride
				}
			default:
				for ; ox <= xhi; ox++ {
					copy(rows[d:d+g.KW], srow[sx:])
					d += kdim
					sx += g.Stride
				}
			}
			for ox := xhi + 1; ox < ow; ox++ {
				edge(ox)
			}
			p += g.KW
		}
	}
}

// pack3Asm, when non-nil, is the SIMD compose of the staged 3×3 gather:
// for each of n output positions it composes nc channels' 9-tap blocks
// from three staged-row cursors (position stride `stride`, channel
// stride `plane`) and stores them at position stride kdim / channel
// stride 9. Its 16-byte stores spill 7 zero bytes past every block;
// gatherBand3 documents where each spill lands and why none survives.
var pack3Asm func(dst, r0, r1, r2 []uint8, n, nc, kdim, stride, plane int)

// getU32/getU64/putU64 are the word-wide copy primitives of the gather
// loops; encoding/binary's fixed-width forms compile to single unaligned
// load/store instructions on amd64 and arm64.
func getU32(b []uint8) uint32    { return binary.LittleEndian.Uint32(b) }
func getU64(b []uint8) uint64    { return binary.LittleEndian.Uint64(b) }
func putU64(b []uint8, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// gatherBand3 is the staged 3×3 band gather. Phase one copies the band's
// receptive-field rows per channel into the zero-point-padded staging
// strip (rows outside the image become whole pad rows, in-range rows get
// pad bytes on both flanks), which materializes the position-independent
// padding contract once. Phase two composes every patch row from the
// strip with unconditional word loads: the SIMD pack kernel sweeps all
// output columns and channels in one call per output row, and the Go
// loop (portable dispatch) merges the three word loads into one exact
// 8-byte + 1-byte store per 9-tap block — the same bytes either way.
//
// Spill safety for the kernel's 16-byte stores (9 patch bytes + 7 zero
// bytes): within a row every spill lands in the next channel's block at
// the same position, rewritten later in the same call; the last block's
// spill crosses into the next output row's first block, rewritten by the
// next row's call; and the final row's last spill lands in the 3 spare
// kernel-slack bytes plus the first 4 staging bytes — staged row 0 of
// channel 0, which only the first compose of the band reads (strictly
// before any spill) and which the next band's phase one rewrites whole.
// buf is the full BandLen() lane: patch rows, slack, staging strip.
func (p *ConvPlanU8) gatherBand3(buf, img []uint8, pad uint8, oy0, oy1 int) {
	g := p.g
	srw := p.srw
	rows := (oy1-1-oy0)*g.Stride + 3 // staged rows this band actually uses
	plane := rows * srw
	gl := p.brows*p.ow*p.kdim + 3
	stage := buf[gl : gl+p.stage]
	iyLo := oy0*g.Stride - g.Pad
	for c := 0; c < g.InC; c++ {
		sp := stage[c*plane : (c+1)*plane]
		base := c * g.InH * g.InW
		for r := 0; r < rows; r++ {
			row := sp[r*srw : (r+1)*srw]
			iy := iyLo + r
			if iy < 0 || iy >= g.InH {
				for j := range row {
					row[j] = pad
				}
				continue
			}
			for j := 0; j < g.Pad; j++ {
				row[j] = pad
			}
			copy(row[g.Pad:g.Pad+g.InW], img[base+iy*g.InW:base+(iy+1)*g.InW])
			for j := g.Pad + g.InW; j < srw; j++ {
				row[j] = pad
			}
		}
	}
	kdim := p.kdim
	for oy := oy0; oy < oy1; oy++ {
		drow := buf[(oy-oy0)*p.ow*kdim:]
		r := (oy - oy0) * g.Stride
		c0 := 0
		if pack3Asm != nil {
			c0 = g.InC
			pack3Asm(drow, stage[r*srw:], stage[(r+1)*srw:], stage[(r+2)*srw:],
				p.ow, c0, kdim, g.Stride, plane)
		}
		for c := c0; c < g.InC; c++ {
			cp := c*plane + r*srw
			t0 := stage[cp:]
			t1 := stage[cp+srw:]
			t2 := stage[cp+2*srw:]
			d := c * 9
			sx := 0
			for ox := 0; ox < p.ow; ox++ {
				w0 := getU32(t0[sx : sx+4])
				w1 := getU32(t1[sx : sx+4])
				w2 := getU32(t2[sx : sx+4])
				putU64(drow[d:d+8],
					uint64(w0&0xFFFFFF)|uint64(w1&0xFFFFFF)<<24|uint64(w2&0xFFFF)<<48)
				drow[d+8] = uint8(w2 >> 16)
				d += kdim
				sx += g.Stride
			}
		}
	}
}

// GEMMBand runs every weight panel of b against task t's gathered band
// (m positions in buf), writing the band's rows of the position-major
// accumulator. See GatherBandInto.
func (p *ConvPlanU8) GEMMBand(acc []int32, buf []uint8, b *PackedI8, t, m int) {
	i, oy0, _ := p.bandSpan(t)
	d := acc[(i*p.oh+oy0)*p.ow*b.n:]
	for pi := 0; pi < b.panels; pi++ {
		runPackedPanel(d, buf, b, pi, m, p.kdim, b.n)
	}
}
