package tensor

import "fmt"

// Packed-operand integer GEMM: the serving-engine fast path. The weight
// matrix B of dst = A(u8)·B(i8) is reorganized ONCE (at model compile
// time) into cache-resident column panels shaped for the AVX2 integer
// kernels (the gemmlowp layout), so the per-call GEMM streams A rows
// against contiguous panel bytes instead of striding B every call.
// Rows run in register-blocked groups of four: the 4×8 micro-kernels
// hold four rows' int32 accumulators in registers and reuse every
// loaded panel quad across all four rows (4× fewer B-panel loads than
// the one-row kernels, which the remainder rows still take).
//
// Panel layout: columns are grouped 8 at a time (one YMM register of
// int32 accumulators) and the k dimension 4 at a time (one 32-bit lane of
// the VPMADDUBSW kernel). Panel p, k-quad q occupies the 32 bytes at
// (p·kq + q)·32, holding b[4q+t][8p+j] at byte 4j+t — for each of the 8
// columns, 4 consecutive k values. Both k and n are zero-padded to their
// group sizes; padded weights are exactly zero, so the padded products
// vanish and results are exact.
//
// The VPMADDUBSW kernel pairs adjacent k taps in a saturating int16
// multiply-add: sat16(a[2s]·b[2s] + a[2s+1]·b[2s+1]). With a ∈ [0, 255]
// that saturates iff some even-pair weight magnitude sum exceeds 128
// (255·128 = 32640 ≤ 32767 < 32895 = 255·129, and −255·128 ≥ −32768).
// Pack time detects the hazard per 8-column panel; saturating panels are
// routed to an exact widening kernel (u8/s8 → int16, VPMADDWD into int32)
// and are never silently wrong, while the matrix's clean panels keep the
// fast kernel. The portable Go kernel accumulates straight into int32 and
// is exact for any weights, so SIMD and portable paths are bit-identical
// in all cases.

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
	satp   []bool // per 8-column panel: some even k-pair can saturate the int16 fast kernel
}

// PaddedK returns k rounded up to the kernel's 4-tap quad size. A GEMM
// operand row must be addressable for PaddedK bytes (see
// MatMulU8I8PackedInto); the padding taps multiply zero weights.
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
	// Saturation hazard scan over even-aligned adjacent k-pairs — exactly
	// the pairs VPMADDUBSW fuses (quads start at multiples of 4, so pair
	// boundaries never straddle a quad). The hazard is resolved per
	// 8-column panel, not per matrix: the GEMM picks the fast or the exact
	// widening kernel panel by panel, so one hot output channel does not
	// drag a whole layer onto the slower kernel.
	p.satp = make([]bool, p.panels)
	for j := 0; j < n; j++ {
		pi := j / 8
		if p.satp[pi] {
			continue
		}
		for s := 0; 2*s < k; s++ {
			sum := absI8(bt[j*k+2*s])
			if 2*s+1 < k {
				sum += absI8(bt[j*k+2*s+1])
			}
			if sum > 128 {
				p.satp[pi] = true
				break
			}
		}
	}
	return p
}

func absI8(v int8) int {
	if v < 0 {
		return -int(v)
	}
	return int(v)
}

// Assembly micro-kernels, repointed by the per-arch SIMD dispatch (nil
// where unavailable). Each computes one full 8-column panel against m
// operand rows: dst row stride ldd int32s, operand row stride lda bytes.
// The 4-row variants are the register-blocked shape (m must be a
// positive multiple of 4): four rows' accumulators live in registers and
// every panel quad is loaded once per four rows instead of once per row.
var (
	packedAsmFast  func(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int)
	packedAsmWide  func(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int)
	packedAsmFast4 func(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int)
	packedAsmWide4 func(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int)
	// packedAsmEdge covers the final partial panel (nr < 8 valid
	// columns): exact widening arithmetic regardless of the matrix's
	// saturation hazard, masked stores so lanes past nr are never
	// written.
	packedAsmEdge func(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd, nr int)
)

// MatMulU8I8PackedInto computes dst = a·b where a is a uint8 (m, k)
// matrix with row stride lda ≥ k and b is a prepacked int8 (k, n) matrix.
// dst is row-major (m, n), accumulated in int32 and fully overwritten; it
// must not alias a.
//
// Because the kernels consume k in 4-tap quads, a must be addressable for
// (m−1)·lda + b.PaddedK() elements — up to 3 bytes past the last row's k
// values when k is not a multiple of 4. The contents of those padding
// bytes are irrelevant (they multiply zero weights); callers typically
// over-allocate their operand buffer by 3 bytes.
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
	runPackedPanel(dst[i0*b.n:], a[i0*lda:], b, pi, mr, lda, b.n)
}

// runPackedPanel computes one weight panel against mr operand rows: dst
// and a point at the tile's first row (dst row stride ldd int32s, operand
// row stride lda bytes); the panel's column offset within dst is derived
// from pi. Kernel selection is per panel — saturating weight panels take
// the exact widening kernels, everything else the fast VPMADDUBSW kernels
// — and per row count: groups of four rows run the register-blocked 4-row
// micro-kernel (one panel-quad load per four rows), the remainder rows
// the one-row kernel. mr is arbitrary (the 4-row kernels loop internally),
// which is what lets the implicit-im2col conv driver run a whole gathered
// row band through one call per panel.
func runPackedPanel(dst []int32, a []uint8, b *PackedI8, pi, mr, lda, ldd int) {
	j0 := pi * 8
	nr := min(8, b.n-j0)
	panel := b.data[pi*b.kq*32 : (pi+1)*b.kq*32]
	if nr < 8 {
		if packedAsmEdge != nil {
			packedAsmEdge(dst[j0:], a, panel, mr, b.kq, lda, ldd, nr)
		} else {
			packedPanelGo(dst[j0:], a, panel, mr, b.kq, lda, ldd, nr)
		}
		return
	}
	asm1, asm4 := packedAsmFast, packedAsmFast4
	if b.satp[pi] {
		asm1, asm4 = packedAsmWide, packedAsmWide4
	}
	m4 := mr &^ 3
	if m4 > 0 {
		if asm4 != nil {
			asm4(dst[j0:], a, panel, m4, b.kq, lda, ldd)
		} else {
			packedPanelGo8x4(dst[j0:], a, panel, m4, b.kq, lda, ldd)
		}
	}
	if m4 == mr {
		return
	}
	if asm1 != nil {
		asm1(dst[m4*ldd+j0:], a[m4*lda:], panel, mr-m4, b.kq, lda, ldd)
		return
	}
	packedPanelGo8(dst[m4*ldd+j0:], a[m4*lda:], panel, mr-m4, b.kq, lda, ldd)
}

// packedPanelGo8 is the portable kernel for full 8-column panels: the 8
// dot products live in registers across the k loop, and the packed quad
// is indexed with constant offsets (one bounds check per quad). Exact
// int32 accumulation, bit-identical to both assembly kernels.
func packedPanelGo8(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda:]
		var o0, o1, o2, o3, o4, o5, o6, o7 int32
		for q := 0; q < kq; q++ {
			a0 := int32(arow[4*q])
			a1 := int32(arow[4*q+1])
			a2 := int32(arow[4*q+2])
			a3 := int32(arow[4*q+3])
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
		orow := dst[i*ldd : i*ldd+8 : i*ldd+8]
		orow[0], orow[1], orow[2], orow[3] = o0, o1, o2, o3
		orow[4], orow[5], orow[6], orow[7] = o4, o5, o6, o7
	}
}

// packedPanelGo8x4 is the portable register-blocked kernel for full
// panels (m a positive multiple of 4): the packed quad's 32 weights are
// loaded once per four rows and multiplied against each row's
// activation quad, mirroring the data reuse of the 4-row assembly
// kernels. Exact int32 accumulation, bit-identical to every other
// packed kernel (integer addition is associative).
func packedPanelGo8x4(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd int) {
	for i := 0; i+3 < m; i += 4 {
		r0 := a[i*lda:]
		r1 := a[(i+1)*lda:]
		r2 := a[(i+2)*lda:]
		r3 := a[(i+3)*lda:]
		var o0, o1, o2, o3 [8]int32
		for q := 0; q < kq; q++ {
			a00, a01, a02, a03 := int32(r0[4*q]), int32(r0[4*q+1]), int32(r0[4*q+2]), int32(r0[4*q+3])
			a10, a11, a12, a13 := int32(r1[4*q]), int32(r1[4*q+1]), int32(r1[4*q+2]), int32(r1[4*q+3])
			a20, a21, a22, a23 := int32(r2[4*q]), int32(r2[4*q+1]), int32(r2[4*q+2]), int32(r2[4*q+3])
			a30, a31, a32, a33 := int32(r3[4*q]), int32(r3[4*q+1]), int32(r3[4*q+2]), int32(r3[4*q+3])
			pq := panel[q*32 : q*32+32 : q*32+32]
			for j := 0; j < 8; j++ {
				w0 := int32(pq[4*j])
				w1 := int32(pq[4*j+1])
				w2 := int32(pq[4*j+2])
				w3 := int32(pq[4*j+3])
				o0[j] += a00*w0 + a01*w1 + a02*w2 + a03*w3
				o1[j] += a10*w0 + a11*w1 + a12*w2 + a13*w3
				o2[j] += a20*w0 + a21*w1 + a22*w2 + a23*w3
				o3[j] += a30*w0 + a31*w1 + a32*w2 + a33*w3
			}
		}
		copy(dst[i*ldd:i*ldd+8], o0[:])
		copy(dst[(i+1)*ldd:(i+1)*ldd+8], o1[:])
		copy(dst[(i+2)*ldd:(i+2)*ldd+8], o2[:])
		copy(dst[(i+3)*ldd:(i+3)*ldd+8], o3[:])
	}
}

// packedPanelGo is the portable kernel for the final partial panel
// (nr < 8 valid columns): straight int32 multiply-accumulate over the
// packed layout, exact for any weights.
func packedPanelGo(dst []int32, a []uint8, panel []int8, m, kq, lda, ldd, nr int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda:]
		orow := dst[i*ldd : i*ldd+nr]
		for j := range orow {
			orow[j] = 0
		}
		for q := 0; q < kq; q++ {
			a0 := int32(arow[4*q])
			a1 := int32(arow[4*q+1])
			a2 := int32(arow[4*q+2])
			a3 := int32(arow[4*q+3])
			pq := panel[q*32 : q*32+32]
			for j := 0; j < nr; j++ {
				pj := pq[4*j : 4*j+4]
				orow[j] += a0*int32(pj[0]) + a1*int32(pj[1]) + a2*int32(pj[2]) + a3*int32(pj[3])
			}
		}
	}
}
