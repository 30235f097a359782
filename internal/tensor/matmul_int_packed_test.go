package tensor

import (
	"fmt"
	"os"
	"testing"
)

// naivePackedRef computes dst = a·b for a uint8 (m,k) with row stride lda
// and b int8 given as its transpose bt (n,k) — the reference for the
// packed GEMM.
func naivePackedRef(a []uint8, lda int, bt []int8, m, k, n int) []int32 {
	out := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for p := 0; p < k; p++ {
				s += int32(a[i*lda+p]) * int32(bt[j*k+p])
			}
			out[i*n+j] = s
		}
	}
	return out
}

func randU8(rng *RNG, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(256))
	}
	return out
}

func randI8(rng *RNG, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

// padForQuads returns a with the QuadPad spare bytes the packed kernels
// may read past the final row's k values (filled with a poison value: the
// kernels must multiply them by zero weights only).
func padForQuads(a []uint8) []uint8 {
	for range QuadPad {
		a = append(a, 0xA5)
	}
	return a
}

// randWalk draws a conv-shaped operand walk: rows·ow positions, ow not
// a multiple of 4 unless ow4 is set, each position nseg runs of segq
// quads. Strides are arbitrary and may overlap, as a strip's positions
// and kernel rows do.
func randWalk(rng *RNG, nseg, segq int, ow4 bool) aWalk {
	ow := []int{1, 2, 3, 5, 6, 7, 9, 11}[rng.Intn(8)]
	if ow4 {
		ow = 4 * (1 + rng.Intn(3))
	}
	return aWalk{m: ow * (1 + rng.Intn(3)), ow: ow, lda: 1 + rng.Intn(40), rs: rng.Intn(300),
		segq: segq, nseg: nseg, sst: rng.Intn(60)}
}

// naiveWalkRef computes the (m, n) product of a walk's operand rows —
// each its runs concatenated, first k bytes — and b given as its
// transpose bt (n, k).
func naiveWalkRef(a []uint8, w aWalk, bt []int8, k, n int) []int32 {
	out := make([]int32, w.m*n)
	row := make([]uint8, 0, w.nseg*4*w.segq)
	for p := 0; p < w.m; p++ {
		row = row[:0]
		for s := 0; s < w.nseg; s++ {
			row = append(row, a[w.at(p)+s*w.sst:][:4*w.segq]...)
		}
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += int32(row[kk]) * int32(bt[j*k+kk])
			}
			out[p*n+j] = acc
		}
	}
	return out
}

// checkWalk runs every panel of pb over walk w (a sized to exactly the
// walk's reach, dst poisoned) and compares with the naive product.
func checkWalk(t *testing.T, what string, a []uint8, w aWalk, bt []int8, pb *PackedI8) {
	t.Helper()
	want := naiveWalkRef(a, w, bt, pb.k, pb.n)
	got := make([]int32, w.m*pb.n)
	for i := range got {
		got[i] = -1
	}
	for pi := 0; pi < pb.panels; pi++ {
		runPackedPanel(got, a[:w.last()], pb, pi, w, pb.n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (walk %+v, k=%d n=%d): got[%d] = %d, want %d", what, w, pb.k, pb.n, i, got[i], want[i])
		}
	}
}

// eachDispatch runs the test body once per reachable kernel dispatch. On
// hosts without SIMD kernels only the portable path runs; APT_NOSIMD
// does not remove the SIMD pass, it only changes the startup dispatch.
func eachDispatch(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	modes := []bool{false}
	if SIMDFeatures() != "" {
		modes = append(modes, true)
	}
	for _, on := range modes {
		name := "portable"
		if on {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			prev := SetSIMD(on)
			defer SetSIMD(prev)
			if SIMDActive() != on {
				t.Fatalf("SetSIMD(%v): dispatch did not switch", on)
			}
			body(t)
		})
	}
}

// TestDispatchFollowsAPTNOSIMD pins the startup dispatch to the
// environment: with APT_NOSIMD set the portable kernels run, otherwise
// the assembly runs wherever SIMDFeatures names some. Reading the
// variable here, at test time, also makes the test cache key on it —
// the kernels read it in init, which the cache does not see.
func TestDispatchFollowsAPTNOSIMD(t *testing.T) {
	want := os.Getenv("APT_NOSIMD") == "" && SIMDFeatures() != ""
	if SIMDActive() != want {
		t.Fatalf("SIMDActive() = %v with APT_NOSIMD=%q and SIMDFeatures() = %q, want %v",
			SIMDActive(), os.Getenv("APT_NOSIMD"), SIMDFeatures(), want)
	}
}

func TestPackI8PanelsLayoutAndErrors(t *testing.T) {
	// 3 columns, k=5: padded to 2 quads × 1 panel.
	bt := []int8{ // (n=3, k=5)
		1, 2, 3, 4, 5,
		-1, -2, -3, -4, -5,
		10, 20, 30, 40, 50,
	}
	pb, err := PackI8PanelsBT(bt, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pb.k != 5 || pb.n != 3 || pb.PaddedK() != 8 {
		t.Fatalf("pack geometry: rows %d cols %d paddedK %d", pb.k, pb.n, pb.PaddedK())
	}
	if pb.SizeBytes() != 2*32 {
		t.Fatalf("SizeBytes = %d, want 64", pb.SizeBytes())
	}
	// Quad 0, column 0 = bt row 0 taps k0..k3; column 3 is padding.
	want := []int8{1, 2, 3, 4}
	for tdx, w := range want {
		if pb.data[tdx] != w {
			t.Fatalf("panel[0][col0][%d] = %d, want %d", tdx, pb.data[tdx], w)
		}
	}
	for tdx := 0; tdx < 4; tdx++ {
		if pb.data[4*3+tdx] != 0 {
			t.Fatalf("padding column byte %d = %d, want 0", tdx, pb.data[4*3+tdx])
		}
	}
	// Quad 1 holds k4 plus three k-padding zeros.
	if pb.data[32] != 5 || pb.data[33] != 0 {
		t.Fatalf("quad 1 col 0 = [%d %d ...], want [5 0 ...]", pb.data[32], pb.data[33])
	}

	if _, err := PackI8PanelsBT(bt[:4], 5, 3); err == nil {
		t.Error("short operand did not error")
	}
	if _, err := PackI8PanelsBT(bt, 0, 3); err == nil {
		t.Error("zero k did not error")
	}
}

func TestMatMulU8I8PackedMatchesNaive(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := NewRNG(51)
		// Shapes straddle quad, panel and row-block boundaries; lda > k
		// exercises strided operand rows.
		shapes := []struct{ m, k, n, lda int }{
			{1, 1, 1, 1}, {3, 5, 3, 5}, {8, 16, 8, 16}, {9, 27, 8, 27},
			{17, 30, 20, 33}, {64, 144, 32, 144}, {5, 7, 9, 11}, {2, 4, 17, 4},
		}
		for _, s := range shapes {
			a := padForQuads(randU8(rng, s.m*s.lda))
			bt := randI8(rng, s.n*s.k)
			pb, err := PackI8PanelsBT(bt, s.k, s.n)
			if err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			want := naivePackedRef(a, s.lda, bt, s.m, s.k, s.n)
			got := make([]int32, s.m*s.n)
			if err := MatMulU8I8PackedInto(got, a, pb, s.m, s.lda); err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v: got[%d] = %d, want %d", s, i, got[i], want[i])
				}
			}
		}
	})
}

// TestPackedSaturationAdversarial drives the worst-case operands through
// the packed GEMM: all-255 activations against ±127 weight pairs, whose
// pair sums overflow int16 (a pair-fusing kernel would saturate there).
// Every dispatch mode must produce the exact int32 result.
func TestPackedSaturationAdversarial(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		const m, k, n = 9, 32, 16
		a := make([]uint8, m*k)
		for i := range a {
			a[i] = 255
		}
		a = padForQuads(a)
		patterns := [][2]int8{{127, 127}, {-127, -127}, {127, -127}, {-128, 127}}
		for _, pat := range patterns {
			bt := make([]int8, n*k)
			for j := 0; j < n; j++ {
				for p := 0; p < k; p += 2 {
					bt[j*k+p] = pat[0]
					bt[j*k+p+1] = pat[1]
				}
			}
			pb, err := PackI8PanelsBT(bt, k, n)
			if err != nil {
				t.Fatal(err)
			}
			want := naivePackedRef(a, k, bt, m, k, n)
			got := make([]int32, m*n)
			if err := MatMulU8I8PackedInto(got, a, pb, m, k); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pattern %v: got[%d] = %d, want %d (saturation leaked)", pat, i, got[i], want[i])
				}
			}
			// The same worst case on conv walks: three runs per position
			// (a 3×3 kernel's rows) and a single folded run, output rows of
			// 5 and 6 positions, 20 columns (two full panels and an edge).
			rng := NewRNG(54)
			for si, shape := range [][2]int{{3, 2}, {1, 8}} {
				w := randWalk(rng, shape[0], shape[1], false)
				w.ow, w.m = 5+si, 2*(5+si)
				wk, wn := 4*shape[0]*shape[1], 20
				wa := make([]uint8, w.last())
				for i := range wa {
					wa[i] = 255
				}
				wbt := make([]int8, wn*wk)
				for j := 0; j < wn; j++ {
					for p := 0; p < wk; p += 2 {
						wbt[j*wk+p], wbt[j*wk+p+1] = pat[0], pat[1]
					}
				}
				wpb, err := PackI8PanelsBT(wbt, wk, wn)
				if err != nil {
					t.Fatal(err)
				}
				checkWalk(t, fmt.Sprintf("pattern %v walk", pat), wa, w, wbt, wpb)
			}
		}
	})
}

// TestPackedFastPathStaysExact checks exactness against the naive
// reference with all-255 activations at the |w₀|+|w₁| = 128 boundary, the
// largest pair an int16 pair sum holds.
func TestPackedFastPathStaysExact(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		const m, k, n = 11, 40, 24
		a := make([]uint8, m*k)
		for i := range a {
			a[i] = 255
		}
		a = padForQuads(a)
		bt := make([]int8, n*k)
		for j := 0; j < n; j++ {
			for p := 0; p < k; p += 2 {
				bt[j*k+p] = 64
				bt[j*k+p+1] = -64
			}
		}
		pb, err := PackI8PanelsBT(bt, k, n)
		if err != nil {
			t.Fatal(err)
		}
		want := naivePackedRef(a, k, bt, m, k, n)
		got := make([]int32, m*n)
		if err := MatMulU8I8PackedInto(got, a, pb, m, k); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

// TestPackedFuzzAgainstNaive hammers random shapes and full-range random
// operands through every dispatch; every kernel must be exact.
func TestPackedFuzzAgainstNaive(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := NewRNG(52)
		for trial := 0; trial < 60; trial++ {
			m := 1 + rng.Intn(20)
			k := 1 + rng.Intn(70)
			n := 1 + rng.Intn(40)
			lda := k + rng.Intn(5)
			a := padForQuads(randU8(rng, m*lda))
			bt := randI8(rng, n*k)
			if trial%3 == 0 {
				// A third of the trials keep every weight pair at
				// |w0|+|w1| ≤ 128, as range coverage.
				for i := range bt {
					bt[i] = int8(rng.Intn(129) - 64)
				}
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
					t.Fatalf("trial %d (m=%d k=%d n=%d lda=%d): got[%d] = %d, want %d",
						trial, m, k, n, lda, i, got[i], want[i])
				}
			}
		}
		// Conv walks: 1–5 runs per position (only the last run of a
		// folded single-run walk ends in quad padding), output rows of
		// every width residue mod 4, so the 4-row groups, the one-row
		// remainder and the edge panel all run.
		for trial := 0; trial < 60; trial++ {
			nseg, segq := 1+rng.Intn(5), 1+rng.Intn(6)
			w := randWalk(rng, nseg, segq, trial%4 == 0)
			k := 4 * nseg * segq
			if nseg == 1 {
				k -= rng.Intn(4)
			}
			n := 1 + rng.Intn(30)
			bt := randI8(rng, n*k)
			if trial%3 == 0 {
				for i := range bt {
					bt[i] = int8(rng.Intn(129) - 64)
				}
			}
			pb, err := PackI8PanelsBT(bt, k, n)
			if err != nil {
				t.Fatal(err)
			}
			checkWalk(t, fmt.Sprintf("walk trial %d", trial), randU8(rng, w.last()), w, bt, pb)
		}
	})
}

// hazardWeights draws an (n, k) weight matrix around the int16 pair-sum
// bound, as range coverage: hazard 0 keeps every even pair at
// |w0|+|w1| ≤ 128, half of them at the bound; 1 also lifts one pair per
// column to 129; 2 draws the full int8 range.
func hazardWeights(rng *RNG, n, k, hazard int) []int8 {
	if hazard == 2 {
		return randI8(rng, n*k)
	}
	sign := func(v int) int8 {
		if rng.Intn(2) == 0 {
			return int8(-v)
		}
		return int8(v)
	}
	bt := make([]int8, n*k)
	for j := 0; j < n; j++ {
		col, lift := bt[j*k:(j+1)*k], -1
		if hazard == 1 && k >= 2 {
			lift = 2 * rng.Intn(k/2)
		}
		for s := 0; s+1 < k; s += 2 {
			w0 := 1 + rng.Intn(127)
			w1 := 128 - w0
			if s == lift {
				w0 = 2 + rng.Intn(126)
				w1 = 129 - w0
			} else if rng.Intn(2) == 0 {
				w1 = rng.Intn(w1 + 1)
			}
			col[s], col[s+1] = sign(w0), sign(w1)
		}
		if k%2 == 1 {
			col[k-1] = sign(rng.Intn(128))
		}
	}
	return bt
}

// FuzzPackedU8I8VsNaive drives the packed u8×s8 GEMM under both
// dispatches against the naive products, word for word: the plain GEMM
// through MatMulU8I8PackedInto and panel by panel at a padded row stride,
// then a conv operand walk (1–5 runs of 1–6 quads, output rows of every
// width residue mod 4). Weights sit on both sides of the |w0|+|w1| > 128
// int16 pair-sum bound (hazardWeights, as range coverage) and n of any
// residue mod 8, so the full-panel and masked-edge kernels both run. A's
// bytes past k in every row, its PaddedK spare included, read 0xFF and
// half of the rest 255; guard words follow every dst row. Operands sit
// against guard pages, so a read past what the kernels may read faults:
// the plain A ends at (m−1)·lda + PaddedK(), the walk's at w.last(), and
// a second copy of the walk's starts at a page.
func FuzzPackedU8I8VsNaive(f *testing.F) {
	// TestPackedFuzzAgainstNaive's shape ranges: m 1–20, k 1–70, n 1–40,
	// lda k..k+4.
	for i, sd := range []struct{ m, k, n, gap uint8 }{
		{1, 1, 1, 0}, {20, 70, 40, 4}, {4, 5, 8, 1}, {7, 64, 16, 3},
		{13, 33, 9, 2}, {3, 70, 39, 0}, {20, 2, 17, 4}, {9, 31, 24, 1},
	} {
		f.Add(uint64(i), sd.m-1, sd.k-1, sd.n-1, sd.gap, uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mb, kb, nb, gap, hz uint8) {
		rng := NewRNG(seed)
		m, k, n := 1+int(mb%20), 1+int(kb%70), 1+int(nb%40)
		lda, hazard := k+int(gap%5), int(hz%3)
		bt := hazardWeights(rng, n, k, hazard)
		pb, err := PackI8PanelsBT(bt, k, n)
		if err != nil {
			t.Fatal(err)
		}
		pad := pb.PaddedK() - k
		if pad < 0 || pad > QuadPad {
			t.Fatalf("k=%d: PaddedK %d is not k plus at most QuadPad", k, pb.PaddedK())
		}
		a := guarded[uint8](t, (m-1)*lda+k, pad)
		a = a[:cap(a)]
		for i := range a {
			row := min(i/lda, m-1)
			switch {
			case i-row*lda >= k:
				a[i] = 0xFF
			case rng.Intn(2) == 0:
				a[i] = 255
			default:
				a[i] = uint8(rng.Intn(256))
			}
		}
		want := naivePackedRef(a, lda, bt, m, k, n)

		nseg, segq := 1+rng.Intn(5), 1+rng.Intn(6)
		w := randWalk(rng, nseg, segq, rng.Intn(4) == 0)
		kw := 4 * nseg * segq
		if nseg == 1 {
			kw -= rng.Intn(4)
		}
		btw := hazardWeights(rng, n, kw, hazard)
		pw, err := PackI8PanelsBT(btw, kw, n)
		if err != nil {
			t.Fatal(err)
		}
		aw := guarded[uint8](t, w.last(), 0)
		copy(aw, randU8(rng, w.last()))
		awStart := guardedStart[uint8](t, w.last())
		copy(awStart, aw)
		wantW := naiveWalkRef(aw, w, btw, kw, n)

		const guard, canary = 3, int32(-0x21524111)
		ldd := n + guard
		// check compares rows of got (row stride ld, guard words past n,
		// then the words past the last row) with the dense want.
		check := func(t *testing.T, what string, got, want []int32, rows, ld int) {
			t.Helper()
			for i := range got {
				exp := canary
				if r, j := i/ld, i%ld; r < rows && j < n {
					exp = want[r*n+j]
				}
				if got[i] != exp {
					t.Fatalf("%s (m=%d k=%d n=%d lda=%d hazard=%d, walk %+v kw=%d): word %d (row stride %d) = %d, want %d",
						what, m, k, n, lda, hazard, w, kw, i, ld, got[i], exp)
				}
			}
		}
		poisoned := func(n int) []int32 {
			d := make([]int32, n)
			for i := range d {
				d[i] = canary
			}
			return d
		}
		// One worker: a guard-page fault is only caught on the calling
		// goroutine.
		defer SetMaxWorkers(SetMaxWorkers(1))
		eachDispatch(t, func(t *testing.T) {
			got := poisoned(m*n + guard)
			faultFree(t, "gemm", func() {
				if err := MatMulU8I8PackedInto(got, a, pb, m, lda); err != nil {
					t.Fatal(err)
				}
			})
			check(t, "gemm", got, want, m, n)
			got = poisoned(m * ldd)
			faultFree(t, "panels", func() {
				for pi := 0; pi < pb.panels; pi++ {
					runPackedPanel(got, a, pb, pi, aWalk{m: m, ow: m, lda: lda, segq: pb.kq, nseg: 1}, ldd)
				}
			})
			check(t, "panels", got, want, m, ldd)
			for _, src := range []struct {
				what string
				a    []uint8
			}{{"walk", aw}, {"walk at page start", awStart}} {
				got = poisoned(w.m * ldd)
				faultFree(t, src.what, func() {
					for pi := 0; pi < pw.panels; pi++ {
						runPackedPanel(got, src.a, pw, pi, w, ldd)
					}
				})
				check(t, src.what, got, wantW, w.m, ldd)
			}
		})
	})
}

func TestPackedDeterministicAcrossWorkers(t *testing.T) {
	rng := NewRNG(53)
	m, k, n := 37, 60, 26
	a := padForQuads(randU8(rng, m*k))
	bt := randI8(rng, n*k)
	pb, err := PackI8PanelsBT(bt, k, n)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	serial := make([]int32, m*n)
	if err := MatMulU8I8PackedInto(serial, a, pb, m, k); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		SetMaxWorkers(w)
		got := make([]int32, m*n)
		if err := MatMulU8I8PackedInto(got, a, pb, m, k); err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", w, i, got[i], serial[i])
			}
		}
	}
}

func TestMatMulU8I8PackedErrors(t *testing.T) {
	bt := make([]int8, 2*5)
	pb, err := PackI8PanelsBT(bt, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint8, 3*5)
	dst := make([]int32, 3*2)
	// k=5 pads to 8, so a plain m×k operand is 3 bytes short.
	if err := MatMulU8I8PackedInto(dst, a, pb, 3, 5); err == nil {
		t.Error("unpadded operand did not error")
	}
	if err := MatMulU8I8PackedInto(dst, padForQuads(a), pb, 3, 4); err == nil {
		t.Error("lda < k did not error")
	}
	if err := MatMulU8I8PackedInto(dst[:5], padForQuads(a), pb, 3, 5); err == nil {
		t.Error("short destination did not error")
	}
	if err := MatMulU8I8PackedInto(dst, padForQuads(a), pb, 0, 5); err == nil {
		t.Error("zero m did not error")
	}
}

// TestPackedSerialPathAllocs pins the zero-allocation contract of the
// serial packed GEMM — the inference engine's steady state counts on it.
func TestPackedSerialPathAllocs(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	rng := NewRNG(55)
	m, k, n := 32, 64, 16
	a := padForQuads(randU8(rng, m*k))
	bt := randI8(rng, n*k)
	pb, err := PackI8PanelsBT(bt, k, n)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, m*n)
	allocs := testing.AllocsPerRun(20, func() {
		if err := MatMulU8I8PackedInto(dst, a, pb, m, k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial packed GEMM allocates %v objects/op, want 0", allocs)
	}
}

func ExamplePackI8PanelsBT() {
	// Two output columns of three weights each, in the (n, k) layout
	// weight tensors use; activations with row stride 4 > k exercise the
	// strided-operand form.
	w := []int8{1, 2, 3, -1, -2, -3}
	pb, _ := PackI8PanelsBT(w, 3, 2)
	a := []uint8{1, 1, 1, 0, 2, 2, 2, 0, 0, 0, 0} // 2 rows, lda 4, +3 pad
	dst := make([]int32, 2*2)
	_ = MatMulU8I8PackedInto(dst, a, pb, 2, 4)
	fmt.Println(dst)
	// Output: [6 -6 12 -12]
}
