package tensor

import "fmt"

// GEMM blocking parameters. Column blocks keep one output row segment plus
// four B-row segments inside L1/L2 while the AXPY kernels stream them; row
// blocks bound task granularity so ParallelFor has enough chunks to balance
// even when one dimension is small (e.g. conv GEMMs with 16 output rows or
// linear backward with narrow outputs).
const (
	gemmColBlock = 2048
	gemmRowBlock = 8
)

func blocks(n, block int) int { return (n + block - 1) / block }

// checkMatMul2D validates rank-2 operands sharing inner dimension k and
// returns (m, k, n) for out = (m, n).
func checkMatMul2D(op string, a, b *Tensor, aT, bT bool) (m, k, n int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, 0, fmt.Errorf("%w: %s wants rank-2 operands, got %v x %v", ErrShape, op, a.shape, b.shape)
	}
	m, k = a.shape[0], a.shape[1]
	if aT {
		m, k = k, m
	}
	k2, n := b.shape[0], b.shape[1]
	if bT {
		k2, n = n, k2
	}
	if k != k2 {
		return 0, 0, 0, fmt.Errorf("%w: %s inner dims %d != %d", ErrShape, op, k, k2)
	}
	return m, k, n, nil
}

func checkDst(op string, dst *Tensor, m, n int) error {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: %s destination %v, want (%d, %d)", ErrShape, op, dst.shape, m, n)
	}
	return nil
}

// MatMul returns the matrix product a·b for 2-D tensors.
func MatMul(a, b *Tensor) (*Tensor, error) {
	m, _, n, err := checkMatMul2D("matmul", a, b, false, false)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	matMulKernel(out.data, a.data, b.data, m, a.shape[1], n)
	return out, nil
}

// MatMulInto computes dst = a·b without allocating, overwriting dst. dst
// must have shape (a.rows, b.cols) and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) error {
	m, k, n, err := checkMatMul2D("matmul", a, b, false, false)
	if err != nil {
		return err
	}
	if err := checkDst("matmul", dst, m, n); err != nil {
		return err
	}
	matMulKernel(dst.data, a.data, b.data, m, k, n)
	return nil
}

// matMulKernel computes od = ad·bd for row-major (m, k)·(k, n), blocked
// over output tiles and driven through the worker pool. Each output element
// is written by exactly one task with a fixed accumulation order, so the
// result is identical for any worker count. The dense path deliberately has
// no zero-skip branch: on real weight and activation matrices the branch
// mispredicts far more than it saves (sparse fast paths live only where
// gradients are provably sparse, e.g. ReLU-masked depthwise backward).
//
// When the shape amortizes it (PackWorthF32), B is repacked per call into
// pooled column panels and the product runs the register-blocked 4×16
// micro-kernels (matmul_packed.go) instead of the AXPY loop below.
func matMulKernel(od, ad, bd []float32, m, k, n int) {
	if PackWorthF32(m, k, n) {
		pb := f32PackPool.Get().(*PackedF32)
		if pb.PackB(bd[:k*n], k, n) == nil {
			matMulF32PackedDriver(od, ad, pb, m, k, 1)
			f32PackPool.Put(pb)
			return
		}
		f32PackPool.Put(pb)
	}
	matMulAXPYKernel(od, ad, bd, m, k, n)
}

// matMulAXPYKernel is the direct AXPY-shaped path, kept for shapes below
// the packing threshold.
func matMulAXPYKernel(od, ad, bd []float32, m, k, n int) {
	mb, nb := blocks(m, gemmRowBlock), blocks(n, gemmColBlock)
	ParallelFor(mb*nb, func(t int) {
		ib, jb := t/nb, t%nb
		i1 := min((ib+1)*gemmRowBlock, m)
		j0 := jb * gemmColBlock
		j1 := min(j0+gemmColBlock, n)
		for i := ib * gemmRowBlock; i < i1; i++ {
			orow := od[i*n+j0 : i*n+j1]
			for j := range orow {
				orow[j] = 0
			}
			arow := ad[i*k : (i+1)*k]
			p := 0
			for ; p+3 < k; p += 4 {
				axpy4(orow,
					bd[p*n+j0:p*n+j1],
					bd[(p+1)*n+j0:(p+1)*n+j1],
					bd[(p+2)*n+j0:(p+2)*n+j1],
					bd[(p+3)*n+j0:(p+3)*n+j1],
					arow[p], arow[p+1], arow[p+2], arow[p+3])
			}
			for ; p < k; p++ {
				axpy1(orow, bd[p*n+j0:p*n+j1], arow[p])
			}
		}
	})
}

// MatMulTransAInto computes dst = aᵀ·b where a is (k, m) and b is (k, n),
// without allocating: weight gradients without materializing transposes.
// dst must have shape (m, n) and must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) error {
	m, k, n, err := checkMatMul2D("matmulTA", a, b, true, false)
	if err != nil {
		return err
	}
	if err := checkDst("matmulTA", dst, m, n); err != nil {
		return err
	}
	matMulTransAKernel(dst.data, a.data, b.data, m, k, n)
	return nil
}

// matMulTransAKernel computes od = adᵀ·bd where ad is (k, m): identical
// blocking to matMulKernel, with the A element gathered down a column.
// Shapes above the packing threshold take the packed micro-kernels — the
// strided-A orientation reuses the same 4×16 kernel with swapped operand
// strides.
func matMulTransAKernel(od, ad, bd []float32, m, k, n int) {
	if PackWorthF32(m, k, n) {
		pb := f32PackPool.Get().(*PackedF32)
		if pb.PackB(bd[:k*n], k, n) == nil {
			matMulF32PackedDriver(od, ad, pb, m, 1, m)
			f32PackPool.Put(pb)
			return
		}
		f32PackPool.Put(pb)
	}
	matMulTransAAXPYKernel(od, ad, bd, m, k, n)
}

func matMulTransAAXPYKernel(od, ad, bd []float32, m, k, n int) {
	mb, nb := blocks(m, gemmRowBlock), blocks(n, gemmColBlock)
	ParallelFor(mb*nb, func(t int) {
		ib, jb := t/nb, t%nb
		i1 := min((ib+1)*gemmRowBlock, m)
		j0 := jb * gemmColBlock
		j1 := min(j0+gemmColBlock, n)
		for i := ib * gemmRowBlock; i < i1; i++ {
			orow := od[i*n+j0 : i*n+j1]
			for j := range orow {
				orow[j] = 0
			}
			p := 0
			for ; p+3 < k; p += 4 {
				axpy4(orow,
					bd[p*n+j0:p*n+j1],
					bd[(p+1)*n+j0:(p+1)*n+j1],
					bd[(p+2)*n+j0:(p+2)*n+j1],
					bd[(p+3)*n+j0:(p+3)*n+j1],
					ad[p*m+i], ad[(p+1)*m+i], ad[(p+2)*m+i], ad[(p+3)*m+i])
			}
			for ; p < k; p++ {
				axpy1(orow, bd[p*n+j0:p*n+j1], ad[p*m+i])
			}
		}
	})
}

// MatMulTransB returns a·bᵀ where a is (m, k) and b is (n, k), producing
// (m, n). Used for input gradients without materializing transposes.
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	m, _, n, err := checkMatMul2D("matmulTB", a, b, false, true)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	matMulTransBKernel(out.data, a.data, b.data, m, a.shape[1], n)
	return out, nil
}

// MatMulTransBInto computes dst = a·bᵀ without allocating. dst must have
// shape (a.rows, b.rows) and must not alias a or b.
func MatMulTransBInto(dst, a, b *Tensor) error {
	m, k, n, err := checkMatMul2D("matmulTB", a, b, false, true)
	if err != nil {
		return err
	}
	if err := checkDst("matmulTB", dst, m, n); err != nil {
		return err
	}
	matMulTransBKernel(dst.data, a.data, b.data, m, k, n)
	return nil
}

// matMulTransBKernel computes od = ad·bdᵀ where bd is (n, k). Below the
// packing threshold both operands are traversed along contiguous k-rows,
// each output element one SIMD-friendly inner product; larger shapes pack
// bdᵀ into column panels so B is streamed once per four output rows
// instead of once per row.
func matMulTransBKernel(od, ad, bd []float32, m, k, n int) {
	if PackWorthF32(m, k, n) {
		pb := f32PackPool.Get().(*PackedF32)
		if pb.PackBT(bd[:n*k], k, n) == nil {
			matMulF32PackedDriver(od, ad, pb, m, k, 1)
			f32PackPool.Put(pb)
			return
		}
		f32PackPool.Put(pb)
	}
	ParallelFor(m, func(i int) {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = dot(arow, bd[j*k:(j+1)*k])
		}
	})
}
