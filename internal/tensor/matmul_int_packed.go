package tensor

import "fmt"

// Packed-operand integer GEMM: the serving-engine fast path. The weight
// matrix B of dst = A(u8)·B(i8) is reorganized ONCE (at model compile
// time) into cache-resident column panels shaped for the integer panel
// kernels, so the per-call GEMM streams A rows against contiguous panel
// bytes instead of striding B every call. Rows run in register-blocked
// groups of four: the 4×8 micro-kernels hold four rows' int32
// accumulators in registers and reuse every loaded panel quad across all
// four rows (4× fewer B-panel loads than the one-row bodies, which the
// remainder rows still take).
//
// Panel layout: columns are grouped 8 at a time (one YMM register of
// int32 accumulators) and the k dimension 4 at a time (a quad: one 32-bit
// activation broadcast). Panel p, k-quad q occupies the 32 bytes at
// (p·kq + q)·32, holding b[4q+t][8p+j] at byte 4j+t — for each of the 8
// columns, 4 consecutive k values. Both k and n are zero-padded to their
// group sizes; padded weights are exactly zero, so the padded products
// vanish and results are exact.
//
// Every kernel is exact for every weight: products are widened to int16
// (AVX2 VPMOVZXBW / VPMOVSXBW, NEON UXTL / SXTL) before a multiply-add
// into int32, and |255·w0| + |255·w1| always fits. Integer addition is
// associative, so the portable Go kernel, which accumulates straight into
// int32, and every assembly kernel are bit-identical whatever their row
// grouping.

// gemmRowBlock bounds the rows of one packed integer GEMM task, so
// ParallelFor has enough chunks to balance even when a layer has few
// output channels or a small batch.
const gemmRowBlock = 8

// PackedI8 is an int8 matrix repacked into column panels for
// MatMulU8I8PackedInto. A packed matrix is immutable: build it once (at
// model compile time), then share it freely across concurrent GEMM calls.
type PackedI8 struct {
	k, n   int
	kq     int // k quads: ceil(k/4)
	panels int // column panels: ceil(n/8)
	data   []int8
}

// QuadPad is the most operand bytes a packed kernel reads past a row's k
// values: k is consumed in whole 4-tap quads, so a row is read to
// PaddedK() ≤ k + QuadPad bytes, and the padding taps multiply zero
// weights. Callers keep QuadPad spare bytes past the last row's k values.
const QuadPad = 3

// PaddedK returns k rounded up to the kernel's 4-tap quad size, at most
// QuadPad bytes past k. A GEMM operand row must be addressable for
// PaddedK bytes (see MatMulU8I8PackedInto).
func (p *PackedI8) PaddedK() int { return 4 * p.kq }

// SizeBytes returns the packed storage footprint.
func (p *PackedI8) SizeBytes() int { return len(p.data) }

// PackI8PanelsBT packs the transpose of a row-major (n, k) int8 matrix —
// the natural orientation of weight tensors, whose rows are output
// channels — into column panels: PackI8PanelsBT(w, k, n) packs B = wᵀ.
func PackI8PanelsBT(bt []int8, k, n int) (*PackedI8, error) {
	if err := checkPackI8("packBT", len(bt), k, n); err != nil {
		return nil, err
	}
	return packI8(bt, k, n), nil
}

func checkPackI8(op string, lenB, k, n int) error {
	if k <= 0 || n <= 0 {
		return fmt.Errorf("%w: %s dims (%d,%d) must be positive", ErrShape, op, k, n)
	}
	if lenB < k*n {
		return fmt.Errorf("%w: %s operand has %d elements, want >= %d", ErrShape, op, lenB, k*n)
	}
	return nil
}

// packI8 packs bt, the row-major (n, k) transpose of B: B[kk][j] is
// bt[j*k+kk].
func packI8(bt []int8, k, n int) *PackedI8 {
	p := &PackedI8{
		k: k, n: n,
		kq:     (k + 3) / 4,
		panels: (n + 7) / 8,
	}
	p.data = make([]int8, p.panels*p.kq*32)
	for pi := 0; pi < p.panels; pi++ {
		for q := 0; q < p.kq; q++ {
			seg := p.data[(pi*p.kq+q)*32 : (pi*p.kq+q)*32+32]
			for j := 0; j < 8; j++ {
				col := pi*8 + j
				if col >= n {
					continue // zero padding columns
				}
				for t := 0; t < 4; t++ {
					if kk := 4*q + t; kk < k {
						seg[4*j+t] = bt[col*k+kk]
					}
				}
			}
		}
	}
	return p
}

// aWalk addresses the operand rows of one packed panel call: m rows that
// come ow at a time (output row r starts r·rs bytes in, position x of it
// x·lda bytes further), each read as nseg runs of 4·segq bytes, sst
// apart. A plain matrix is one run per row and one output row (ow = m);
// the int8 conv reads KH runs per position off a staged row strip, or
// one run when the strip is folded. Runs are whole quads, so a quad never
// straddles two runs.
type aWalk struct {
	m, ow, lda, rs  int
	segq, nseg, sst int
}

// last returns one past the last operand byte the walk reads (every
// stride is non-negative, so the last position's last run ends farthest).
func (w aWalk) last() int {
	return (w.m/w.ow-1)*w.rs + (w.ow-1)*w.lda + (w.nseg-1)*w.sst + 4*w.segq
}

// at returns the byte offset of operand row p.
func (w aWalk) at(p int) int { return p/w.ow*w.rs + p%w.ow*w.lda }

// Assembly micro-kernels, repointed by the per-arch SIMD dispatch (nil
// where unavailable; the portable packedPanelGo runs instead). packedAsm
// computes one full 8-column panel against the m operand rows of a walk
// (dst row stride ldd int32s): within every output row, groups of four
// positions run register-blocked — four rows' accumulators live in
// registers and every panel quad is loaded once per four rows — and the
// last ow mod 4 positions one at a time. A group never straddles two
// output rows. packedAsmEdge covers the final partial panel (nr < 8
// valid columns) one row at a time, with masked stores so lanes past nr
// are never written.
var (
	packedAsm     func(dst []int32, a []uint8, panel []int8, w aWalk, ldd int)
	packedAsmEdge func(dst []int32, a []uint8, panel []int8, w aWalk, ldd, nr int)
)

// MatMulU8I8PackedInto computes dst = a·b where a is a uint8 (m, k)
// matrix with row stride lda ≥ k and b is a prepacked int8 (k, n) matrix.
// dst is row-major (m, n), accumulated in int32 and fully overwritten; it
// must not alias a.
//
// Because the kernels consume k in 4-tap quads, a must be addressable for
// (m−1)·lda + b.PaddedK() elements — up to QuadPad bytes past the last
// row's k values when k is not a multiple of 4. The contents of those
// padding bytes are irrelevant (they multiply zero weights); callers
// typically over-allocate their operand buffer by QuadPad bytes.
func MatMulU8I8PackedInto(dst []int32, a []uint8, b *PackedI8, m, lda int) error {
	if m <= 0 {
		return fmt.Errorf("%w: matmulU8I8Packed m %d must be positive", ErrShape, m)
	}
	if lda < b.k {
		return fmt.Errorf("%w: matmulU8I8Packed row stride %d < k %d", ErrShape, lda, b.k)
	}
	if need := (m-1)*lda + b.PaddedK(); len(a) < need {
		return fmt.Errorf("%w: matmulU8I8Packed operand a has %d elements, want >= %d (incl. quad padding)",
			ErrShape, len(a), need)
	}
	if len(dst) < m*b.n {
		return fmt.Errorf("%w: matmulU8I8Packed destination has %d elements, want >= %d", ErrShape, len(dst), m*b.n)
	}
	mb := blocks(m, gemmRowBlock)
	if maxWorkers == 1 {
		for t := 0; t < mb*b.panels; t++ {
			gemmPackedBlock(dst, a, b, m, lda, t)
		}
		return nil
	}
	ParallelFor(mb*b.panels, func(t int) { gemmPackedBlock(dst, a, b, m, lda, t) })
	return nil
}

// gemmPackedBlock computes one (row block × panel) output tile.
func gemmPackedBlock(dst []int32, a []uint8, b *PackedI8, m, lda, t int) {
	ib, pi := t/b.panels, t%b.panels
	i0 := ib * gemmRowBlock
	mr := min(gemmRowBlock, m-i0)
	runPackedPanel(dst[i0*b.n:], a[i0*lda:], b, pi, aWalk{m: mr, ow: mr, lda: lda, segq: b.kq, nseg: 1}, b.n)
}

// runPackedPanel computes one weight panel against the operand rows of
// walk w: dst points at the tile's first row (row stride ldd int32s) and
// the panel's column offset within it is derived from pi. One call covers
// every row of the walk, which is what lets the int8 conv run a whole band
// through one call per panel.
func runPackedPanel(dst []int32, a []uint8, b *PackedI8, pi int, w aWalk, ldd int) {
	j0 := pi * 8
	nr := min(8, b.n-j0)
	panel := b.data[pi*b.kq*32 : (pi+1)*b.kq*32]
	switch {
	case nr == 8 && packedAsm != nil:
		packedAsm(dst[j0:], a, panel, w, ldd)
	case nr < 8 && packedAsmEdge != nil:
		packedAsmEdge(dst[j0:], a, panel, w, ldd, nr)
	default:
		packedPanelGo(dst[j0:], a, panel, w, ldd, nr)
	}
}

// packedPanelGo is the portable panel kernel: each operand row's 8
// column dot products live in registers across its runs, and the first
// nr are stored. Exact int32 accumulation, so it is bit-identical to
// every assembly kernel whatever their row grouping (integer addition is
// associative).
func packedPanelGo(dst []int32, a []uint8, panel []int8, w aWalk, ldd, nr int) {
	for p := 0; p < w.m; p++ {
		arow := a[w.at(p):]
		var o0, o1, o2, o3, o4, o5, o6, o7 int32
		q := 0
		for s := 0; s < w.nseg; s++ {
			run := arow[s*w.sst : s*w.sst+4*w.segq]
			for t := 0; t < len(run); t, q = t+4, q+1 {
				a0, a1, a2, a3 := int32(run[t]), int32(run[t+1]), int32(run[t+2]), int32(run[t+3])
				pq := panel[q*32 : q*32+32 : q*32+32]
				o0 += a0*int32(pq[0]) + a1*int32(pq[1]) + a2*int32(pq[2]) + a3*int32(pq[3])
				o1 += a0*int32(pq[4]) + a1*int32(pq[5]) + a2*int32(pq[6]) + a3*int32(pq[7])
				o2 += a0*int32(pq[8]) + a1*int32(pq[9]) + a2*int32(pq[10]) + a3*int32(pq[11])
				o3 += a0*int32(pq[12]) + a1*int32(pq[13]) + a2*int32(pq[14]) + a3*int32(pq[15])
				o4 += a0*int32(pq[16]) + a1*int32(pq[17]) + a2*int32(pq[18]) + a3*int32(pq[19])
				o5 += a0*int32(pq[20]) + a1*int32(pq[21]) + a2*int32(pq[22]) + a3*int32(pq[23])
				o6 += a0*int32(pq[24]) + a1*int32(pq[25]) + a2*int32(pq[26]) + a3*int32(pq[27])
				o7 += a0*int32(pq[28]) + a1*int32(pq[29]) + a2*int32(pq[30]) + a3*int32(pq[31])
			}
		}
		o := [8]int32{o0, o1, o2, o3, o4, o5, o6, o7}
		copy(dst[p*ldd:p*ldd+nr], o[:nr])
	}
}
