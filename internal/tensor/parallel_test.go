package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestParallelForConcurrentSubmitters runs twice the pool's cores in
// submitters at once, each a mix of ParallelFor, ParallelForWorker and
// nested jobs with n from 1 to 64. Every index must run exactly once, and
// lanes must be exclusive within a job and below MaxWorkers(). With a
// submitter in flight on every core, a further job runs alone: lane 0
// throughout, in index order. Last, the fan-out bound is moved right after
// each of many jobs returns, while the pool's helpers are still looking
// for the next one; under the race detector a helper that read the bound
// fails here.
func TestParallelForConcurrentSubmitters(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	poolOnce.Do(startPool)
	cores := int(poolCores)
	mw := MaxWorkers()

	var bad atomic.Int32
	// lanedJob runs ParallelForWorker over n indices, counting each index
	// and flagging lanes out of range or shared by two participants.
	lanedJob := func(n int) {
		hits := make([]int32, n)
		depth := make([]int32, mw)
		ParallelForWorker(n, func(i, lane int) {
			if lane < 0 || lane >= mw {
				bad.Store(1)
				return
			}
			if atomic.AddInt32(&depth[lane], 1) != 1 {
				bad.Store(2)
			}
			atomic.AddInt32(&hits[i], 1)
			atomic.AddInt32(&depth[lane], -1)
		})
		for _, h := range hits {
			if h != 1 {
				bad.Store(3)
			}
		}
	}
	plainJob := func(n int) {
		hits := make([]int32, n)
		ParallelFor(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for _, h := range hits {
			if h != 1 {
				bad.Store(4)
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 2*cores; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 60; round++ {
				n := 1 + (g*37+round*13)%64
				switch (g + round) % 3 {
				case 0:
					plainJob(n)
				case 1:
					lanedJob(n)
				default:
					outer := 1 + n%5
					ParallelFor(outer, func(int) { lanedJob(n) })
				}
			}
		}(g)
	}
	wg.Wait()
	if code := bad.Load(); code != 0 {
		t.Fatalf("concurrent submitters: check %d failed (1 lane range, 2 shared lane, 3/4 index count)", code)
	}

	// Occupy every core: cores-1 submitters block in their first index,
	// and every helper blocks in an index of theirs, so the probe job is
	// the cores-th submitter in flight with no helper free. Stale copies
	// of finished jobs drain from the queue first, so the blockers' offers
	// fit in it.
	deadline := time.Now().Add(10 * time.Second)
	for len(poolJobs) > 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	release := make(chan struct{})
	var entered atomic.Int32
	var blockers sync.WaitGroup
	for b := 0; b < cores-1; b++ {
		blockers.Add(1)
		go func() {
			defer blockers.Done()
			ParallelFor(8, func(int) {
				entered.Add(1)
				<-release
			})
		}()
	}
	want := int32(2 * (cores - 1))
	for entered.Load() < want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	var order []int
	var lanes []int
	if entered.Load() == want {
		ParallelForWorker(9, func(i, lane int) {
			order = append(order, i)
			lanes = append(lanes, lane)
		})
	}
	close(release)
	blockers.Wait()
	if got := entered.Load(); got < want {
		t.Fatalf("only %d of %d blocking indices started", got, want)
	}
	for i := range order {
		if order[i] != i || lanes[i] != 0 {
			t.Fatalf("job alone: step %d ran index %d on lane %d, want index %d on lane 0", i, order[i], lanes[i], i)
		}
	}
	if len(order) != 9 {
		t.Fatalf("job alone ran %d indices, want 9", len(order))
	}

	// Move the bound right after each job returns.
	for round := 0; round < 200; round++ {
		SetMaxWorkers(2 + round%3)
		plainJob(1 + round%64)
	}
}

// BenchmarkForkChain models one ResNet-20 training step as the pool sees
// it: 128 ParallelForWorker forks of about 15 indices each, whose bodies
// take 4-60 µs of arithmetic, with about 1 µs of serial work between
// forks. ns/op is one chain. Run it at -cpu 1,2: the fan-out follows
// GOMAXPROCS, so -cpu 1 is the serial reference and -cpu 2 pays every
// hand-off to the pool's helper and back.
func BenchmarkForkChain(b *testing.B) {
	defer SetMaxWorkers(SetMaxWorkers(runtime.GOMAXPROCS(0)))
	const forks = 128
	var sink atomic.Uint64
	for it := 0; it < b.N; it++ {
		for f := 0; f < forks; f++ {
			x := (f * 37) % 57
			us := 4 + x*x*x/(56*56) // 4-60 µs, most forks short
			ParallelForWorker(12+f%7, func(i, lane int) {
				sink.Add(spin(us * spinStepsPerUs))
			})
			sink.Add(spin(spinStepsPerUs))
		}
	}
}

// spinStepsPerUs is about one microsecond of spin on a 3 GHz x86 core.
const spinStepsPerUs = 740

// spin runs a dependent multiply-add chain of k steps and returns its
// state, so the compiler cannot drop it.
func spin(k int) uint64 {
	x := uint64(k) | 1
	for i := 0; i < k; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
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

// checkClose fails unless got ≈ want elementwise within tol relative to
// 1+|want|; a NaN in got always fails.
func checkClose(t *testing.T, got, want *Tensor, tol float64, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v != %v", label, got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		g, w := float64(got.Data()[i]), float64(want.Data()[i])
		if !(math.Abs(g-w) <= tol*(1+math.Abs(w))) {
			t.Fatalf("%s: elem %d: got %v, want %v", label, i, g, w)
		}
	}
}

// TestTiledGEMMAgainstNaiveReference checks the three MatMul orientations
// against an independent float64 triple loop within 1e-5, under every
// dispatch. The shapes cover every m and n below one 4×8 micro-tile
// crossed with k = 1..3 (all-edge panels, lone rows only), the
// classifier head's forward (64,32,4) and weight-gradient (4,64,32)
// products, a 4-row product 16384 columns wide, and shapes crossing row
// blocks, panel edges and both panel widths. dst starts as NaN, so an
// element the kernels skip fails, and a canary word past dst must
// survive every product.
func TestTiledGEMMAgainstNaiveReference(t *testing.T) {
	shapes := [][3]int{
		{3, 4, 5}, {8, 27, 33}, {16, 13, 64}, {5, 16, 2100}, {17, 6, 31}, {2, 9, 7},
		{64, 32, 4}, {4, 64, 32}, {4, 36, 16384},
	}
	for m := 1; m <= 7; m++ {
		for n := 1; n <= 7; n++ {
			for k := 1; k <= 3; k++ {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	type gemmCase struct {
		label string
		run   func(dst *Tensor) error
		want  *Tensor
	}
	rng := NewRNG(77)
	var cases []gemmCase
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		at, bt := randMat(rng, k, m), randMat(rng, n, k)
		cases = append(cases,
			gemmCase{fmt.Sprintf("matmul %v", s), func(d *Tensor) error { return MatMulInto(d, a, b) }, naiveMatMul(a, b, false, false)},
			gemmCase{fmt.Sprintf("matmulTA %v", s), func(d *Tensor) error { return MatMulTransAInto(d, at, b) }, naiveMatMul(at, b, true, false)},
			gemmCase{fmt.Sprintf("matmulTB %v", s), func(d *Tensor) error { return MatMulTransBInto(d, a, bt) }, naiveMatMul(a, bt, false, true)},
		)
	}
	const canary = 0x7fc0ffee // a quiet-NaN payload no product yields
	eachDispatch(t, func(t *testing.T) {
		for _, c := range cases {
			m, n := c.want.Dim(0), c.want.Dim(1)
			buf := make([]float32, m*n+1)
			for i := range buf {
				buf[i] = float32(math.NaN())
			}
			buf[m*n] = math.Float32frombits(canary)
			dst := MustFromSlice(buf[:m*n], m, n)
			if err := c.run(dst); err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			checkClose(t, dst, c.want, 1e-5, c.label)
			if math.Float32bits(buf[m*n]) != canary {
				t.Fatalf("%s: wrote past dst", c.label)
			}
		}
	})
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
	want, _ := matMul(a, b)
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
	want, _ = matMul(a, transpose(bt))
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
	ref, err := matMul(a, b)
	SetMaxWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		SetMaxWorkers(workers)
		got, err := matMul(a, b)
		SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		matEq(t, got, ref, 0)
	}
}
