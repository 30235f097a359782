package tensor

import "fmt"

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

// matMulKernel computes od = ad·bd for row-major (m, k)·(k, n): B is
// repacked into a pooled PackedF32 and the product runs the packed
// micro-kernels (matmul_packed.go) over the worker pool. Each output
// element is written by exactly one task with a fixed accumulation order,
// so the result is identical for any worker count. The dense path
// deliberately has no zero-skip branch: on real weight and activation
// matrices the branch mispredicts far more than it saves (sparse fast
// paths live only where gradients are provably sparse, e.g. ReLU-masked
// depthwise backward).
func matMulKernel(od, ad, bd []float32, m, k, n int) {
	pb := f32PackPool.Get().(*PackedF32)
	_ = pb.PackB(bd, k, n) // cannot fail: checkMatMul2D validated the shapes
	matMulF32PackedDriver(od, ad, pb, m, k, 1)
	f32PackPool.Put(pb)
}

// MatMulTransAInto computes dst = aᵀ·b where a is (k, m) and b is (k, n),
// without allocating: weight gradients without materializing transposes.
// dst must have shape (m, n) and must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) error {
	pb := f32PackPool.Get().(*PackedF32)
	defer f32PackPool.Put(pb)
	return MatMulTransAPackedInto(dst, a, b, pb)
}

// MatMulTransAPackedInto is MatMulTransAInto packing b into the caller's
// pb, the same adᵀ·bd on the 4×16 kernel with swapped operand strides: a
// layer that keeps pb across steps never touches the shared pack pool.
func MatMulTransAPackedInto(dst, a, b *Tensor, pb *PackedF32) error {
	m, k, n, err := checkMatMul2D("matmulTA", a, b, true, false)
	if err != nil {
		return err
	}
	if err := checkDst("matmulTA", dst, m, n); err != nil {
		return err
	}
	_ = pb.PackB(b.data, k, n) // cannot fail: checkMatMul2D validated the shapes
	matMulF32PackedDriver(dst.data, a.data, pb, m, 1, m)
	return nil
}

// MatMulTransBInto computes dst = a·bᵀ where a is (m, k) and b is (n, k),
// without allocating or materializing the transpose. dst must have shape
// (m, n) and must not alias a or b.
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

// matMulTransBKernel computes od = ad·bdᵀ where bd is (n, k): bdᵀ is
// packed into column panels, so B is streamed once per four output rows.
func matMulTransBKernel(od, ad, bd []float32, m, k, n int) {
	pb := f32PackPool.Get().(*PackedF32)
	_ = pb.PackBT(bd, k, n) // cannot fail: checkMatMul2D validated the shapes
	matMulF32PackedDriver(od, ad, pb, m, k, 1)
	f32PackPool.Put(pb)
}
