package nn

import "repro/internal/tensor"

// Scratch-arena helpers shared by the layers.
//
// Ownership rules (see PERF.md for the full contract):
//
//   - A layer owns every tensor it returns from Forward/Backward. The
//     caller may read it freely until the layer's next Forward/Backward
//     call, at which point the buffer is reused and overwritten. The
//     sequential trainer consumes each activation within the step, so
//     steady-state training performs near-zero allocations in the
//     conv/GEMM path.
//   - Callers that need a value to survive longer (checkpointing,
//     histories, cross-step comparisons) must Clone it.
//   - Arenas grow to the largest batch seen and are re-sliced for smaller
//     batches, so mixed train/eval batch sizes do not thrash.

// growF32 returns a zero-copy slice of length n backed by *buf, growing the
// backing array only when capacity is insufficient. Contents are undefined
// (possibly stale); callers must fully overwrite it.
func growF32(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// growInt is growF32 for index buffers.
func growInt(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// growU8 is growF32 for byte masks.
func growU8(buf *[]uint8, n int) []uint8 {
	if cap(*buf) < n {
		*buf = make([]uint8, n)
	}
	return (*buf)[:n]
}

// arenaTensor wraps a grown buffer in a cached tensor view. The cached
// tensor is rebuilt only when the requested shape changes, so steady-state
// steps reuse both the backing array and the tensor header.
type arenaTensor struct {
	buf   []float32
	shape []int
	t     *tensor.Tensor
}

// get returns a tensor of the given shape backed by the arena. Contents
// are stale; the caller must fully overwrite them (or zero explicitly).
func (a *arenaTensor) get(shape ...int) *tensor.Tensor {
	if a.t != nil && sameShape(a.shape, shape) {
		return a.t
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	// The arena's own copy goes to FromSlice, so the argument does not
	// escape and a caller's literal shape stays on its stack.
	a.shape = append(a.shape[:0], shape...)
	t, err := tensor.FromSlice(growF32(&a.buf, n), a.shape...)
	if err != nil {
		panic(err) // programmer error: shapes are computed, not user input
	}
	a.t = t
	return t
}

// like is get with x's shape, read through Dim: Shape copies the shape on
// every call, and a step asks for each activation's shape several times.
func (a *arenaTensor) like(x *tensor.Tensor) *tensor.Tensor {
	if a.t == nil || len(a.shape) != x.Rank() {
		return a.get(x.Shape()...)
	}
	for i, d := range a.shape {
		if d != x.Dim(i) {
			return a.get(x.Shape()...)
		}
	}
	return a.t
}

// chunkJob is the body of one element-wise or per-channel pass of a layer:
// run(i) handles chunk i, and chunks are independent.
type chunkJob interface{ run(i int) }

// forChunks runs j.run(i) for every i in [0, n) on the worker pool. Jobs
// are value types, so a pass that runs serially — one chunk, or one
// worker — keeps its job on the caller's stack and allocates nothing; only
// the pool path builds a closure.
func forChunks[J chunkJob](n int, j J) {
	if n == 1 || tensor.MaxWorkers() == 1 {
		for i := 0; i < n; i++ {
			j.run(i)
		}
		return
	}
	jc := j // only this copy may move to the heap
	tensor.ParallelFor(n, func(i int) { jc.run(i) })
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
