package tensor

import (
	"fmt"
	"math"
	"testing"
)

// randF32 fills a slice with values in [-1, 1).
func randF32(rng *RNG, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = 2*rng.Float32() - 1
	}
	return out
}

// packedB packs a row-major (k, n) matrix into fresh column panels.
func packedB(t testing.TB, b []float32, k, n int) *PackedF32 {
	t.Helper()
	pb := new(PackedF32)
	if err := pb.PackB(b, k, n); err != nil {
		t.Fatal(err)
	}
	return pb
}

// naiveF32Ref computes dst = a·b for (m, k with row stride lda)·(k, n) in
// the kernels' accumulation order (one float32 accumulator per element,
// k ascending), the reference for the packed float GEMM.
func naiveF32Ref(a []float32, lda int, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*lda+p] * b[p*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

// f32Close fails unless got ≈ want to float32 rounding noise: the FMA
// kernels fuse each multiply-add into one rounding, portable Go and the
// naive reference round twice per tap, so results differ in the last
// few ulps but share the accumulation order.
func f32Close(t *testing.T, label string, got, want []float32, k int) {
	t.Helper()
	// Error grows with the accumulation length; 4 ulps per tap is a loose
	// cover for the single- vs double-rounding difference.
	for i := range want {
		diff := math.Abs(float64(got[i]) - float64(want[i]))
		scale := math.Max(math.Abs(float64(want[i])), 1)
		if diff > 1e-6*scale*float64(k+1) {
			t.Fatalf("%s: got[%d] = %g, want %g (diff %g)", label, i, got[i], want[i], diff)
		}
	}
}

func TestPackF32PanelsLayoutAndErrors(t *testing.T) {
	// Narrow (n < 64) matrices pack 8-wide, wide ones 16-wide; both
	// layouts share the same structure: panel pi, k-row q holds
	// b[q][pi·pw .. pi·pw+pw−1] contiguously, the rightmost panel
	// zero-padded.
	cases := []struct{ k, n, pw, panels int }{
		{3, 18, 8, 3},  // narrow: two full 8-panels + 2-column edge
		{3, 66, 16, 5}, // wide: four full 16-panels + 2-column edge
	}
	for _, tc := range cases {
		b := make([]float32, tc.k*tc.n)
		for i := range b {
			b[i] = float32(i + 1)
		}
		pb := packedB(t, b, tc.k, tc.n)
		if pb.k != tc.k || pb.n != tc.n || pb.pw != tc.pw || pb.panels != tc.panels {
			t.Fatalf("n=%d pack geometry: rows %d cols %d pw %d panels %d, want (%d,%d,%d,%d)",
				tc.n, pb.k, pb.n, pb.pw, pb.panels, tc.k, tc.n, tc.pw, tc.panels)
		}
		if len(pb.data) != tc.panels*tc.k*tc.pw {
			t.Fatalf("n=%d packed %d floats, want %d", tc.n, len(pb.data), tc.panels*tc.k*tc.pw)
		}
		pw := tc.pw
		for pi := 0; pi < tc.panels; pi++ {
			panel := pb.data[pi*tc.k*pw : (pi+1)*tc.k*pw]
			for q := 0; q < tc.k; q++ {
				for j := 0; j < pw; j++ {
					want := float32(0)
					if col := pi*pw + j; col < tc.n {
						want = b[q*tc.n+col]
					}
					if panel[q*pw+j] != want {
						t.Fatalf("n=%d panel%d[%d][%d] = %g, want %g",
							tc.n, pi, q, j, panel[q*pw+j], want)
					}
				}
			}
		}

		// The transposed form packs identically.
		bt := make([]float32, tc.n*tc.k)
		for j := 0; j < tc.n; j++ {
			for p := 0; p < tc.k; p++ {
				bt[j*tc.k+p] = b[p*tc.n+j]
			}
		}
		pb2 := &PackedF32{}
		if err := pb2.PackBT(bt, tc.k, tc.n); err != nil {
			t.Fatal(err)
		}
		for i := range pb.data {
			if pb.data[i] != pb2.data[i] {
				t.Fatalf("n=%d: PackB and PackBT disagree at %d", tc.n, i)
			}
		}
	}

	b := make([]float32, 3*18)
	if err := new(PackedF32).PackB(b[:4], 3, 18); err == nil {
		t.Error("short operand did not error")
	}
	if err := new(PackedF32).PackB(b, 0, 18); err == nil {
		t.Error("zero k did not error")
	}
}

// TestMatMulF32PackedMatchesNaive drives deliberate edge shapes through
// both kernel dispatches: quad/panel/row-block boundaries, lda > k
// strided operands, and M remainders: lone rows (m < 4) and a rerun
// last group of four.
func TestMatMulF32PackedMatchesNaive(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := NewRNG(61)
		shapes := []struct{ m, k, n, lda int }{
			{1, 1, 1, 1}, {4, 8, 16, 8}, {5, 7, 17, 9}, {8, 27, 48, 27},
			{16, 27, 128, 27}, {33, 40, 50, 41}, {64, 144, 32, 144}, {3, 5, 90, 6},
		}
		for _, s := range shapes {
			a := randF32(rng, s.m*s.lda)
			b := randF32(rng, s.k*s.n)
			pb := packedB(t, b, s.k, s.n)
			want := naiveF32Ref(a, s.lda, b, s.m, s.k, s.n)
			got := make([]float32, s.m*s.n)
			if err := MatMulF32PackedInto(got, a, pb, s.m, s.lda); err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			f32Close(t, "packed", got, want, s.k)
		}
	})
}

// TestMatMulF32PackedTransAMatchesNaive checks the strided-A orientation
// (the weight-gradient shape) under both dispatches.
func TestMatMulF32PackedTransAMatchesNaive(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := NewRNG(62)
		shapes := []struct{ m, k, n, lda int }{
			{4, 8, 16, 4}, {27, 16, 64, 27}, {9, 5, 33, 12}, {32, 3, 100, 32},
		}
		for _, s := range shapes {
			at := randF32(rng, s.k*s.lda) // (k, m) with row stride lda ≥ m
			b := randF32(rng, s.k*s.n)
			pb := packedB(t, b, s.k, s.n)
			// Reference via the explicit transpose.
			a := make([]float32, s.m*s.k)
			for i := 0; i < s.m; i++ {
				for p := 0; p < s.k; p++ {
					a[i*s.k+p] = at[p*s.lda+i]
				}
			}
			want := naiveF32Ref(a, s.k, b, s.m, s.k, s.n)
			got := make([]float32, s.m*s.n)
			if err := MatMulF32PackedTransAInto(got, at, pb, s.m, s.lda); err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			f32Close(t, "packedTA", got, want, s.k)
		}
	})
}

// FuzzPackedF32VsNaive is the spec of the packed float GEMM's row rule
// (f32PackedTile) under both dispatches: m 1–40, so the last 32-row block
// has 1–8 rows; k 1–70 and n 1–80, so both panel widths run full and
// partial panels; both orientations, MatMulF32PackedInto (a is (m, k) at
// row stride lda) and MatMulF32PackedTransAInto (a is (k, m) at lda). The
// product must match the naive one to float32 rounding, and every row
// must equal, bit for bit, the same row computed alone (m = 1): a row's
// bytes may not depend on the group it ran in. a and every destination
// end at a guard page and a second copy of a starts after one, so a read
// or write past them faults.
func FuzzPackedF32VsNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, mb, kb, nb, gap uint8, transA bool) {
		rng := NewRNG(seed)
		m, k, n := 1+int(mb%40), 1+int(kb%70), 1+int(nb%80)
		b := randF32(rng, k*n)
		pb := packedB(t, b, k, n)
		// Row i, tap q of the operand sits at a[i·ars + q·aks].
		lda := k + int(gap%5)
		ars, aks, alen := lda, 1, (m-1)*lda+k
		mul := MatMulF32PackedInto
		if transA {
			lda = m + int(gap%5)
			ars, aks, alen = 1, lda, (k-1)*lda+m
			mul = MatMulF32PackedTransAInto
		}
		a := guarded[float32](t, alen, 0)
		copy(a, randF32(rng, alen))
		aStart := guardedStart[float32](t, alen)
		copy(aStart, a)
		dense := make([]float32, m*k)
		for i := 0; i < m; i++ {
			for q := 0; q < k; q++ {
				dense[i*k+q] = a[i*ars+q*aks]
			}
		}
		want := naiveF32Ref(dense, k, b, m, k, n)

		// One worker: a guard-page fault is only caught on the calling
		// goroutine.
		defer SetMaxWorkers(SetMaxWorkers(1))
		eachDispatch(t, func(t *testing.T) {
			for _, src := range []struct {
				what string
				a    []float32
			}{{"a", a}, {"a at page start", aStart}} {
				label := fmt.Sprintf("%s (m=%d k=%d n=%d lda=%d transA=%v)", src.what, m, k, n, lda, transA)
				got := guarded[float32](t, m*n, 0)
				for i := range got {
					got[i] = math.MaxFloat32
				}
				faultFree(t, label, func() {
					if err := mul(got, src.a, pb, m, lda); err != nil {
						t.Fatal(err)
					}
				})
				f32Close(t, label, got, want, k)
				row := guarded[float32](t, n, 0)
				for i := 0; i < m; i++ {
					faultFree(t, label+" row alone", func() {
						if err := mul(row, src.a[i*ars:], pb, 1, lda); err != nil {
							t.Fatal(err)
						}
					})
					for j, v := range row {
						if math.Float32bits(v) != math.Float32bits(got[i*n+j]) {
							t.Fatalf("%s: row %d alone, column %d = %g, in the product %g", label, i, j, v, got[i*n+j])
						}
					}
				}
			}
		})
	})
}

// TestMatMulF32PackedNarrowSweep walks every output width through the
// narrow-panel machinery: n = 1..7 runs the portable partial-panel
// kernel alone, n = 8..17 mixes full 8-wide panels with every possible
// partial one, and the m values cover lone rows and a rerun last group.
// Both dispatches, so the 4×8 assembly is pinned against the portable
// kernel and the naive reference.
func TestMatMulF32PackedNarrowSweep(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := NewRNG(68)
		k := 13
		lda := k + 1
		for n := 1; n <= 17; n++ {
			for _, m := range []int{1, 2, 3, 4, 5, 9} {
				a := randF32(rng, m*lda)
				b := randF32(rng, k*n)
				pb := packedB(t, b, k, n)
				if pb.pw != f32PanelColsNarrow {
					t.Fatalf("n=%d: panel width %d, want %d", n, pb.pw, f32PanelColsNarrow)
				}
				want := naiveF32Ref(a, lda, b, m, k, n)
				got := make([]float32, m*n)
				if err := MatMulF32PackedInto(got, a, pb, m, lda); err != nil {
					t.Fatal(err)
				}
				f32Close(t, "narrow", got, want, k)
			}
		}
	})
}

// TestMatMulU8I8PackedEdgeColumnSweep drives every partial-panel width
// (n mod 8 = 1..7) and row remainder through the integer packed GEMM,
// for saturating and non-saturating matrices under both dispatches —
// the masked-store edge kernel must write exactly nr columns and match
// the portable kernel bit for bit.
func TestMatMulU8I8PackedEdgeColumnSweep(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := NewRNG(69)
		k := 21
		lda := k + 3
		for n := 1; n <= 15; n++ {
			for _, m := range []int{1, 3, 4, 5} {
				for _, sat := range []bool{false, true} {
					a := padForQuads(randU8(rng, m*lda))
					bt := randI8(rng, n*k)
					if !sat {
						for i := range bt {
							bt[i] = int8(rng.Intn(129) - 64)
						}
					} else {
						bt[0], bt[1] = 127, 127
					}
					pb, err := PackI8PanelsBT(bt, k, n)
					if err != nil {
						t.Fatal(err)
					}
					want := naivePackedRef(a, lda, bt, m, k, n)
					// Sentinel-guarded dst: one extra slot past the end must
					// survive the masked store of the final row's edge panel.
					got := make([]int32, m*n+1)
					got[m*n] = 0x5ca1ab1e
					if err := MatMulU8I8PackedInto(got[:m*n], a, pb, m, lda); err != nil {
						t.Fatal(err)
					}
					if got[m*n] != 0x5ca1ab1e {
						t.Fatalf("n=%d m=%d sat=%v: kernel wrote past dst", n, m, sat)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("n=%d m=%d sat=%v: got[%d] = %d, want %d", n, m, sat, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

func TestMatMulF32PackedDeterministicAcrossWorkers(t *testing.T) {
	rng := NewRNG(65)
	m, k, n := 37, 60, 70
	a := randF32(rng, m*k)
	b := randF32(rng, k*n)
	pb := packedB(t, b, k, n)
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	serial := make([]float32, m*n)
	if err := MatMulF32PackedInto(serial, a, pb, m, k); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		SetMaxWorkers(w)
		// Repack under the parallel pack path too: panels must come out
		// identical for any worker count.
		pb2 := packedB(t, b, k, n)
		for i := range pb.data {
			if pb.data[i] != pb2.data[i] {
				t.Fatalf("workers=%d: pack differs at %d", w, i)
			}
		}
		got := make([]float32, m*n)
		if err := MatMulF32PackedInto(got, a, pb2, m, k); err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: got[%d] = %g, want %g (bitwise)", w, i, got[i], serial[i])
			}
		}
	}
}

func TestMatMulF32PackedErrors(t *testing.T) {
	b := make([]float32, 5*20)
	pb := packedB(t, b, 5, 20)
	a := make([]float32, 3*5)
	dst := make([]float32, 3*20)
	if err := MatMulF32PackedInto(dst, a[:10], pb, 3, 5); err == nil {
		t.Error("short operand did not error")
	}
	if err := MatMulF32PackedInto(dst, a, pb, 3, 4); err == nil {
		t.Error("lda < k did not error")
	}
	if err := MatMulF32PackedInto(dst[:5], a, pb, 3, 5); err == nil {
		t.Error("short destination did not error")
	}
	if err := MatMulF32PackedInto(dst, a, pb, 0, 5); err == nil {
		t.Error("zero m did not error")
	}
	at := make([]float32, 5*3)
	if err := MatMulF32PackedTransAInto(dst, at, pb, 3, 2); err == nil {
		t.Error("TransA lda < m did not error")
	}
	if err := MatMulF32PackedTransAInto(dst, at[:8], pb, 3, 3); err == nil {
		t.Error("TransA short operand did not error")
	}
}

// TestMatMulU8I8PackedRemainderRows hammers the 4-row/1-row split of the
// integer packed GEMM at every M remainder (1..5 plus the row-block
// boundary), with weight pairs below and above the int16 pair-sum bound,
// under both dispatches — the shapes where a wrong group split silently
// corrupts the tail rows.
func TestMatMulU8I8PackedRemainderRows(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := NewRNG(66)
		for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13} {
			for _, sat := range []bool{false, true} {
				k, n := 21, 16
				lda := k + 2
				a := padForQuads(randU8(rng, m*lda))
				bt := randI8(rng, n*k)
				if !sat {
					for i := range bt {
						bt[i] = int8(rng.Intn(129) - 64)
					}
				} else {
					// A pair past the int16 pair-sum bound.
					bt[0], bt[1] = 127, 127
				}
				pb, err := PackI8PanelsBT(bt, k, n)
				if err != nil {
					t.Fatal(err)
				}
				want := naivePackedRef(a, lda, bt, m, k, n)
				got := make([]int32, m*n)
				if err := MatMulU8I8PackedInto(got, a, pb, m, lda); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("m=%d sat=%v: got[%d] = %d, want %d", m, sat, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestF32PackedSerialPathAllocs pins the zero-allocation contract of the
// serial packed float path (pack + GEMM into reused buffers) — the nn
// layers' steady-state training steps count on it.
func TestF32PackedSerialPathAllocs(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	rng := NewRNG(67)
	m, k, n := 32, 27, 160
	a := randF32(rng, m*k)
	b := randF32(rng, k*n)
	pb := &PackedF32{}
	dst := make([]float32, m*n)
	allocs := testing.AllocsPerRun(20, func() {
		if err := pb.PackB(b, k, n); err != nil {
			t.Fatal(err)
		}
		if err := MatMulF32PackedInto(dst, a, pb, m, k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial packed float path allocates %v objects/op, want 0", allocs)
	}
}

// MatMulF32PackedTransAInto is the test-only validated entry to the packed
// driver's strided-A orientation (production reaches it through
// MatMulTransAInto and the band convolution's input-gradient product):
// dst = aᵀ·b where a is a float32 (k, m) matrix with row stride lda ≥ m
// and b is a packed (k, n) matrix. dst is row-major (m, n), fully
// overwritten.
func MatMulF32PackedTransAInto(dst, a []float32, b *PackedF32, m, lda int) error {
	if m <= 0 {
		return fmt.Errorf("%w: matmulF32PackedTA m %d must be positive", ErrShape, m)
	}
	if lda < m {
		return fmt.Errorf("%w: matmulF32PackedTA row stride %d < m %d", ErrShape, lda, m)
	}
	if need := (b.k-1)*lda + m; len(a) < need {
		return fmt.Errorf("%w: matmulF32PackedTA operand a has %d elements, want >= %d", ErrShape, len(a), need)
	}
	if len(dst) < m*b.n {
		return fmt.Errorf("%w: matmulF32PackedTA destination has %d elements, want >= %d", ErrShape, len(dst), m*b.n)
	}
	matMulF32PackedDriver(dst, a, b, m, 1, lda)
	return nil
}
