package tensor

import (
	"fmt"
	"sync"
)

// Packed-operand float GEMM: the register-blocked shape behind every
// float product in the repo. The B matrix of dst = A·B is
// reorganized into column panels of pw consecutive columns — k rows of
// pw floats each, zero-padded at the right edge — so the inner kernel
// streams one contiguous panel row per k tap instead of striding B.
// The panel width is 16 columns (two YMM registers of accumulators per
// output row) by default, dropping to 8 for narrow matrices so small-n
// products still fill whole panels. The micro-kernel is 4×pw: four
// output rows' accumulators stay in registers across the whole k loop,
// each loaded B panel row is multiplied against all four rows, and dst
// is touched exactly once per tile. That is the BLIS/gemmlowp shape.
//
// The pack streams k·n floats once while the GEMM performs m·k·n FMAs,
// so its overhead is ~1/m of the arithmetic. MatMul/MatMulTransA/
// MatMulTransBInto pack every call into a pooled PackedF32; nn.Linear holds
// its own PackedF32 arena and calls MatMulF32PackedInto directly, and the
// band convolution (conv_band.go) gathers its patches straight into
// panels, so the hot training path packs into reused storage and
// allocates nothing.
//
// Unlike the integer kernels, SIMD and portable float kernels are not
// bitwise identical: the assembly accumulates with fused multiply-adds
// (one rounding per tap) while portable Go rounds the multiply and the
// add separately. Both accumulate in the same k-ascending order with one
// accumulator per output element, so they agree to float32 rounding.

// f32PanelCols is the default packed panel width: 16 columns = two YMM
// registers of float32 accumulators per output row.
const f32PanelCols = 16

// f32PanelColsNarrow is the narrow panel width, one YMM register of
// accumulators per output row. Products too narrow to fill 16-wide
// panels (n < f32NarrowPanelMaxN) pack 8-wide instead, so shapes like
// the first-layer weight gradient (n = kdim = 27) or a classifier head
// still run the register-blocked kernels over mostly-full panels
// rather than pushing most of their columns through the scalar edge
// kernel.
const f32PanelColsNarrow = 8

// f32NarrowPanelMaxN is the column count below which reset picks the
// narrow panel width: under 4 full wide panels, the partial-panel
// fraction of a 16-wide layout is large enough that 8-wide panels win.
const f32NarrowPanelMaxN = 4 * f32PanelCols

// f32PackedRowBlock bounds the rows of one packed-GEMM task. A task
// streams its B panel from cache once for every row block, so 32 rows
// (eight 4-row groups) keep that re-streaming low while ceil(m/32)·panels
// still leaves plenty of tasks for the worker pool (panels dominate on
// every large shape).
const f32PackedRowBlock = 32

// PackedF32 is a float32 matrix repacked into column panels for
// MatMulF32PackedInto. Unlike PackedI8 (packed once at model-compile
// time), a PackedF32 is a reusable buffer: PackB/PackBT overwrite it in
// place, growing storage only when the shape outgrows it, so per-call
// packing is allocation-free at steady state. A packed matrix must not
// be repacked while a GEMM is reading it.
type PackedF32 struct {
	k, n   int
	pw     int // panel width: f32PanelCols, or f32PanelColsNarrow for small n
	panels int // column panels: ceil(n/pw)
	data   []float32
}

// PackF32PanelsB packs a row-major (k, n) matrix into fresh column
// panels.
func PackF32PanelsB(b []float32, k, n int) (*PackedF32, error) {
	p := &PackedF32{}
	if err := p.PackB(b, k, n); err != nil {
		return nil, err
	}
	return p, nil
}

// PackB repacks a row-major (k, n) matrix into p, reusing p's storage.
func (p *PackedF32) PackB(b []float32, k, n int) error {
	if err := checkPackF32("packB", len(b), k, n); err != nil {
		return err
	}
	p.reset(k, n)
	if maxWorkers == 1 {
		for pi := 0; pi < p.panels; pi++ {
			p.packPanelB(b, pi)
		}
		return nil
	}
	ParallelFor(p.panels, func(pi int) { p.packPanelB(b, pi) })
	return nil
}

// PackBT repacks the transpose of a row-major (n, k) matrix into p,
// reusing p's storage: B = btᵀ.
func (p *PackedF32) PackBT(bt []float32, k, n int) error {
	if err := checkPackF32("packBT", len(bt), k, n); err != nil {
		return err
	}
	p.reset(k, n)
	if maxWorkers == 1 {
		for pi := 0; pi < p.panels; pi++ {
			p.packPanelBT(bt, pi)
		}
		return nil
	}
	ParallelFor(p.panels, func(pi int) { p.packPanelBT(bt, pi) })
	return nil
}

func checkPackF32(op string, lenB, k, n int) error {
	if k <= 0 || n <= 0 {
		return fmt.Errorf("%w: %s dims (%d,%d) must be positive", ErrShape, op, k, n)
	}
	if lenB < k*n {
		return fmt.Errorf("%w: %s operand has %d elements, want >= %d", ErrShape, op, lenB, k*n)
	}
	return nil
}

func (p *PackedF32) reset(k, n int) {
	p.k, p.n = k, n
	p.pw = f32PanelCols
	if n < f32NarrowPanelMaxN {
		p.pw = f32PanelColsNarrow
	}
	p.panels = (n + p.pw - 1) / p.pw
	need := p.panels * k * p.pw
	if cap(p.data) < need {
		p.data = make([]float32, need)
	}
	p.data = p.data[:need]
}

// packPanelB fills panel pi from a row-major (k, n) source: contiguous
// pw-float copies per k row, the rightmost panel zero-padded.
func (p *PackedF32) packPanelB(b []float32, pi int) {
	pw := p.pw
	j0 := pi * pw
	nr := min(pw, p.n-j0)
	dst := p.data[pi*p.k*pw : (pi+1)*p.k*pw]
	if nr == pw {
		for q := 0; q < p.k; q++ {
			copy(dst[q*pw:q*pw+pw], b[q*p.n+j0:q*p.n+j0+pw])
		}
		return
	}
	for q := 0; q < p.k; q++ {
		seg := dst[q*pw : (q+1)*pw]
		copy(seg, b[q*p.n+j0:q*p.n+j0+nr])
		for j := nr; j < pw; j++ {
			seg[j] = 0
		}
	}
}

// packPanelBT fills panel pi from the transposed (n, k) source: each
// source row is one panel column, read contiguously and scattered at
// stride pw.
func (p *PackedF32) packPanelBT(bt []float32, pi int) {
	pw := p.pw
	j0 := pi * pw
	nr := min(pw, p.n-j0)
	dst := p.data[pi*p.k*pw : (pi+1)*p.k*pw]
	if nr < pw {
		for i := range dst {
			dst[i] = 0
		}
	}
	for jj := 0; jj < nr; jj++ {
		src := bt[(j0+jj)*p.k : (j0+jj+1)*p.k]
		for q, v := range src {
			dst[q*pw+jj] = v
		}
	}
}

// Micro-kernel dispatch (see kernels.go for the portable definitions and
// kernels_amd64.go for the FMA assembly repointing). Each kernel pair
// computes full panels of one width; a addresses row r, tap q at
// a[r*ars + q*aks], which lets one kernel serve the normal (ars=lda,
// aks=1) and transposed-A (ars=1, aks=lda) orientations.
var (
	f32Panel4   = f32Panel4Go   // 4 rows × 16 cols (dst rows at ldd stride)
	f32Panel1   = f32Panel1Go   // 1 row × 16 cols (writes dst[0:16])
	f32Panel4w8 = f32Panel4x8Go // 4 rows × 8 cols (narrow panels)
	f32Panel1w8 = f32Panel1x8Go // 1 row × 8 cols (writes dst[0:8])

	f32StripPanel = f32StripPanelGo // strip-route forward: m rows × one panel read from the strip
	f32StripDW    = f32StripDWGo    // strip-route dWᵀ: rows read from the strip × one pw-wide panel
	f32StripDX    = f32StripDXGo    // strip-route dx: 4-row groups × one panel read from the dout strip, segment by segment
)

// MatMulF32PackedInto computes dst = a·b where a is a float32 (m, k)
// matrix with row stride lda ≥ k and b is a packed (k, n) matrix. dst is
// row-major (m, n), fully overwritten; it must not alias a or b's
// storage. Results are identical for any worker count.
func MatMulF32PackedInto(dst, a []float32, b *PackedF32, m, lda int) error {
	if m <= 0 {
		return fmt.Errorf("%w: matmulF32Packed m %d must be positive", ErrShape, m)
	}
	if lda < b.k {
		return fmt.Errorf("%w: matmulF32Packed row stride %d < k %d", ErrShape, lda, b.k)
	}
	if need := (m-1)*lda + b.k; len(a) < need {
		return fmt.Errorf("%w: matmulF32Packed operand a has %d elements, want >= %d", ErrShape, len(a), need)
	}
	if len(dst) < m*b.n {
		return fmt.Errorf("%w: matmulF32Packed destination has %d elements, want >= %d", ErrShape, len(dst), m*b.n)
	}
	matMulF32PackedDriver(dst, a, b, m, lda, 1)
	return nil
}

// matMulF32PackedDriver tiles the packed GEMM over (row block × panel)
// tasks on the worker pool; dst row stride is b.n. Each output element
// is written by exactly one task with a fixed k order, so results are
// bit-identical across worker counts.
func matMulF32PackedDriver(dst, a []float32, b *PackedF32, m, ars, aks int) {
	if maxWorkers == 1 {
		matMulF32PackedSerial(dst, a, b, m, ars, aks)
		return
	}
	ParallelFor(blocks(m, f32PackedRowBlock)*b.panels, func(t int) { f32PackedTile(dst, a, b, m, ars, aks, t) })
}

// matMulF32PackedSerial is the driver's non-forking form: every tile on
// the calling goroutine, no closure. The band convolution runs it inside
// its own pool tasks.
func matMulF32PackedSerial(dst, a []float32, b *PackedF32, m, ars, aks int) {
	for t, nt := 0, blocks(m, f32PackedRowBlock)*b.panels; t < nt; t++ {
		f32PackedTile(dst, a, b, m, ars, aks, t)
	}
}

// f32PackedTile computes one (row block × panel) output tile: groups of
// four rows through the register-blocked 4-row kernel of the pack's
// panel width, remainder rows through the matching one-row kernel,
// partial right-edge panels through the portable edge kernel.
func f32PackedTile(dst, a []float32, b *PackedF32, m, ars, aks, t int) {
	ib, pi := t/b.panels, t%b.panels
	i0 := ib * f32PackedRowBlock
	mr := min(f32PackedRowBlock, m-i0)
	pw := b.pw
	j0 := pi * pw
	nr := min(pw, b.n-j0)
	panel := b.data[pi*b.k*pw : (pi+1)*b.k*pw]
	if nr < pw {
		f32PanelEdgeGo(dst[i0*b.n+j0:], a[i0*ars:], panel, mr, b.k, ars, aks, b.n, pw, nr)
		return
	}
	kern4, kern1 := f32Panel4, f32Panel1
	if pw == f32PanelColsNarrow {
		kern4, kern1 = f32Panel4w8, f32Panel1w8
	}
	m4 := mr &^ 3
	if m4 > 0 {
		kern4(dst[i0*b.n+j0:], a[i0*ars:], panel, m4, b.k, ars, aks, b.n)
	}
	for i := m4; i < mr; i++ {
		kern1(dst[(i0+i)*b.n+j0:], a[(i0+i)*ars:], panel, b.k, aks)
	}
}

// f32PackPool recycles packed-B buffers for the MatMul entry points
// (matmul.go), so per-call packing costs no steady-state allocations
// there either.
var f32PackPool = sync.Pool{New: func() any { return new(PackedF32) }}
