package tensor

import (
	"math"
	"sync/atomic"
	"testing"
)

// TestParallelForDeterministicAcrossWorkerCounts verifies the pool's core
// contract: for independent iterations the result is identical to a serial
// loop no matter the fan-out, because every index runs exactly once.
func TestParallelForDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 1337
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = math.Sqrt(float64(i)) * 1.5
	}
	for _, workers := range []int{1, 2, 3, 4, 7, 16, 64} {
		prev := SetMaxWorkers(workers)
		got := make([]float64, n)
		ParallelFor(n, func(i int) { got[i] = math.Sqrt(float64(i)) * 1.5 })
		SetMaxWorkers(prev)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: index %d = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestParallelForNested ensures nested ParallelFor calls cannot deadlock:
// the caller participates in its own job, so progress never depends on a
// free pool worker.
func TestParallelForNested(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	const outer, inner = 16, 32
	sums := make([]int64, outer)
	ParallelFor(outer, func(i int) {
		part := make([]int64, inner)
		ParallelFor(inner, func(j int) { part[j] = int64(i*inner + j) })
		var s int64
		for _, v := range part {
			s += v
		}
		sums[i] = s
	})
	var total int64
	for _, s := range sums {
		total += s
	}
	n := int64(outer * inner)
	if want := n * (n - 1) / 2; total != want {
		t.Fatalf("nested sum = %d, want %d", total, want)
	}
}

// TestParallelForReentryAfterCompletion runs many small jobs back to back
// to exercise stale-job handoff in the pool queue.
func TestParallelForReentryAfterCompletion(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	for round := 0; round < 200; round++ {
		hits := make([]int32, 37)
		ParallelFor(len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: index %d ran %d times", round, i, h)
			}
		}
	}
}

// TestParallelForWorkerCoversAllIndices pins ParallelForWorker's index
// contract (each i exactly once) and its lane contract: every lane
// ordinal stays below MaxWorkers(), and a participant keeps one lane for
// the whole job, so no index observes a torn lane assignment.
func TestParallelForWorkerCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8, 32} {
		prev := SetMaxWorkers(workers)
		for round := 0; round < 50; round++ {
			const n = 211
			hits := make([]int32, n)
			lanes := make([]int32, n)
			ParallelForWorker(n, func(i, lane int) {
				hits[i]++
				lanes[i] = int32(lane)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d round=%d: index %d ran %d times", workers, round, i, h)
				}
				if lanes[i] < 0 || int(lanes[i]) >= workers {
					t.Fatalf("workers=%d: index %d saw lane %d, want [0,%d)", workers, i, lanes[i], workers)
				}
			}
		}
		SetMaxWorkers(prev)
	}
}

// TestParallelForWorkerLanesAreExclusive checks that no two concurrent
// participants share a lane: each iteration increments and decrements a
// per-lane depth counter, which must never exceed 1.
func TestParallelForWorkerLanesAreExclusive(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	depth := make([]int32, MaxWorkers())
	var bad int32
	for round := 0; round < 20; round++ {
		ParallelForWorker(512, func(i, lane int) {
			if d := atomic.AddInt32(&depth[lane], 1); d != 1 {
				atomic.StoreInt32(&bad, 1)
			}
			atomic.AddInt32(&depth[lane], -1)
		})
	}
	if bad != 0 {
		t.Fatal("two concurrent participants shared a lane")
	}
}

// TestParallelForWorkerSerialIsLaneZero pins the serial fast path: one
// worker means a plain loop with lane 0 throughout (the engine's
// zero-allocation serial contract sizes scratch for exactly one lane).
func TestParallelForWorkerSerialIsLaneZero(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	order := make([]int, 0, 9)
	ParallelForWorker(9, func(i, lane int) {
		if lane != 0 {
			t.Fatalf("serial lane = %d, want 0", lane)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order[%d] = %d, want %d", i, v, i)
		}
	}
}

// naiveMatMul is an independent float64 triple loop used as ground truth
// for the blocked kernels.
func naiveMatMul(a, b *Tensor, aT, bT bool) *Tensor {
	ad, bd := a.Data(), b.Data()
	var m, k, n int
	at := func(i, p int) float32 { return ad[i*a.Dim(1)+p] }
	bt := func(p, j int) float32 { return bd[p*b.Dim(1)+j] }
	if aT {
		k, m = a.Dim(0), a.Dim(1)
		at = func(i, p int) float32 { return ad[p*a.Dim(1)+i] }
	} else {
		m, k = a.Dim(0), a.Dim(1)
	}
	if bT {
		n = b.Dim(0)
		bt = func(p, j int) float32 { return bd[j*b.Dim(1)+p] }
	} else {
		n = b.Dim(1)
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(at(i, p)) * float64(bt(p, j))
			}
			out.Set(float32(s), i, j)
		}
	}
	return out
}

func checkClose(t *testing.T, got, want *Tensor, tol float64, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v != %v", label, got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		g, w := float64(got.Data()[i]), float64(want.Data()[i])
		if math.Abs(g-w) > tol*(1+math.Abs(w)) {
			t.Fatalf("%s: elem %d: got %v, want %v", label, i, g, w)
		}
	}
}

// TestTiledGEMMAgainstNaiveReference checks all three GEMM variants against
// an independent float64 triple loop within 1e-5 across shapes that cover
// every unroll tail (k % 4 in 0..3, n crossing the column-block boundary).
func TestTiledGEMMAgainstNaiveReference(t *testing.T) {
	rng := NewRNG(77)
	shapes := [][3]int{
		{1, 1, 1}, {3, 4, 5}, {8, 27, 33}, {16, 13, 64},
		{5, 16, 2100}, // n crosses gemmColBlock
		{17, 6, 31}, {2, 9, 7},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		got, err := MatMul(a, b)
		if err != nil {
			t.Fatalf("MatMul(%v): %v", s, err)
		}
		checkClose(t, got, naiveMatMul(a, b, false, false), 1e-5, "matmul")

		at := randMat(rng, k, m)
		gotTA := New(m, n)
		if err := MatMulTransAInto(gotTA, at, b); err != nil {
			t.Fatalf("MatMulTransAInto(%v): %v", s, err)
		}
		checkClose(t, gotTA, naiveMatMul(at, b, true, false), 1e-5, "matmulTA")

		bt := randMat(rng, n, k)
		gotTB, err := MatMulTransB(a, bt)
		if err != nil {
			t.Fatalf("MatMulTransB(%v): %v", s, err)
		}
		checkClose(t, gotTB, naiveMatMul(a, bt, false, true), 1e-5, "matmulTB")
	}
}

// TestMatMulIntoMatchesAlloc checks the zero-alloc variants write the same
// values as their allocating counterparts into a poisoned destination.
func TestMatMulIntoMatchesAlloc(t *testing.T) {
	rng := NewRNG(78)
	a := randMat(rng, 9, 14)
	b := randMat(rng, 14, 21)
	at := randMat(rng, 14, 9)
	bt := randMat(rng, 21, 14)

	poison := func(m, n int) *Tensor {
		d := New(m, n)
		d.Fill(float32(math.NaN()))
		return d
	}

	dst := poison(9, 21)
	if err := MatMulInto(dst, a, b); err != nil {
		t.Fatalf("MatMulInto: %v", err)
	}
	want, _ := MatMul(a, b)
	matEq(t, dst, want, 0)

	dst = poison(9, 21)
	if err := MatMulTransAInto(dst, at, b); err != nil {
		t.Fatalf("MatMulTransAInto: %v", err)
	}
	want = New(9, 21)
	if err := MatMulTransAInto(want, at, b); err != nil {
		t.Fatalf("MatMulTransAInto: %v", err)
	}
	matEq(t, dst, want, 0)

	dst = poison(9, 21)
	if err := MatMulTransBInto(dst, a, bt); err != nil {
		t.Fatalf("MatMulTransBInto: %v", err)
	}
	want, _ = MatMulTransB(a, bt)
	matEq(t, dst, want, 0)

	// Shape mismatches must error, not corrupt memory.
	bad := New(3, 3)
	if err := MatMulInto(bad, a, b); err == nil {
		t.Fatal("MatMulInto accepted a mis-shaped destination")
	}
}

// TestGEMMDeterministicAcrossWorkerCounts pins the blocked kernels'
// bit-stability: partitioning work differently must not change any output
// bit, because accumulation order per element is fixed by the blocking,
// not by the scheduler.
func TestGEMMDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := NewRNG(79)
	a := randMat(rng, 33, 19)
	b := randMat(rng, 19, 2100)
	prev := SetMaxWorkers(1)
	ref, err := MatMul(a, b)
	SetMaxWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		SetMaxWorkers(workers)
		got, err := MatMul(a, b)
		SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		matEq(t, got, ref, 0)
	}
}

// TestKernelsAgainstReference exercises the dispatched AXPY/dot kernels
// (SIMD assembly on capable amd64 hosts) against plain Go loops, covering
// the vector widths and scalar tails.
func TestKernelsAgainstReference(t *testing.T) {
	rng := NewRNG(80)
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 100, 1023} {
		mk := func() []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = float32(rng.Norm())
			}
			return s
		}
		dst := mk()
		ref := append([]float32(nil), dst...)
		b0, b1, b2, b3 := mk(), mk(), mk(), mk()
		a0, a1, a2, a3 := float32(0.7), float32(-1.3), float32(0.01), float32(2.5)

		axpy4(dst, b0, b1, b2, b3, a0, a1, a2, a3)
		for j := 0; j < n; j++ {
			ref[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
		for j := 0; j < n; j++ {
			if math.Abs(float64(dst[j]-ref[j])) > 1e-5*(1+math.Abs(float64(ref[j]))) {
				t.Fatalf("axpy4 n=%d: elem %d got %v want %v", n, j, dst[j], ref[j])
			}
		}

		dst2 := mk()
		ref2 := append([]float32(nil), dst2...)
		axpy1(dst2, b0, a1)
		for j := 0; j < n; j++ {
			ref2[j] += a1 * b0[j]
		}
		for j := 0; j < n; j++ {
			if math.Abs(float64(dst2[j]-ref2[j])) > 1e-5*(1+math.Abs(float64(ref2[j]))) {
				t.Fatalf("axpy1 n=%d: elem %d got %v want %v", n, j, dst2[j], ref2[j])
			}
		}

		var want float64
		for j := 0; j < n; j++ {
			want += float64(b0[j]) * float64(b1[j])
		}
		got := float64(dot(b0, b1))
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("dot n=%d: got %v want %v", n, got, want)
		}
	}
}
