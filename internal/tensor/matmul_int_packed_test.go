package tensor

import (
	"fmt"
	"os"
	"slices"
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

// padForQuads returns a with the 3 spare bytes the packed kernels may
// read past the final row's k values (filled with a poison value: the
// kernels must multiply them by zero weights only).
func padForQuads(a []uint8) []uint8 {
	return append(a, 0xA5, 0xA5, 0xA5)
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

func TestPackI8SaturationFlag(t *testing.T) {
	cases := []struct {
		name string
		bt   []int8
		k    int
		sat  bool
	}{
		// |64|+|64| = 128: the exact boundary, still safe.
		{"boundary-128", []int8{64, 64}, 2, false},
		{"over-129", []int8{64, 65}, 2, true},
		{"max-pair", []int8{127, 127}, 2, true},
		{"neg-pair", []int8{-127, -127}, 2, true},
		// A lone -128 pairs with implicit zero padding: |−128| = 128, safe.
		{"min-alone", []int8{-128}, 1, false},
		{"min-plus-one", []int8{-128, 1}, 2, true},
		// The hazard is per even-aligned pair: (127, 0, 0, 127) never puts
		// two big taps in one VPMADDUBSW pair.
		{"split-pairs", []int8{127, 0, 0, 127}, 4, false},
		// Odd k: last pair is (w, padding-zero).
		{"odd-tail", []int8{0, 0, 127}, 3, false},
	}
	for _, c := range cases {
		pb, err := PackI8PanelsBT(c.bt, c.k, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if saturating(pb) != c.sat {
			t.Errorf("%s: saturating = %v, want %v", c.name, saturating(pb), c.sat)
		}
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
// the packed GEMM: all-255 activations against ±127 weight pairs, which
// overflow the saturating int16 kernel by design and must be routed to
// the exact path. Every dispatch mode must produce the exact int32
// result.
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
			if !saturating(pb) {
				t.Fatalf("pattern %v: pack did not flag the saturation hazard", pat)
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
		}
	})
}

// TestPackedFastPathStaysExact pins weights below the saturation bound so
// the fast VPMADDUBSW kernel is eligible, and checks exactness against
// the naive reference — including all-255 activations at the |w₀|+|w₁| =
// 128 boundary.
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
		if saturating(pb) {
			t.Fatal("boundary weights must stay on the fast kernel")
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
// operands through every dispatch; whatever kernel the pack routes to
// must be exact.
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
				// Keep a third of the trials saturation-free so the fuzz
				// also covers the fast kernel, not just the widening route.
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
					t.Fatalf("trial %d (m=%d k=%d n=%d lda=%d sat=%v): got[%d] = %d, want %d",
						trial, m, k, n, lda, saturating(pb), i, got[i], want[i])
				}
			}
		}
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

// saturating reports whether any panel of pb routes to the exact widening
// kernel.
func saturating(pb *PackedI8) bool { return slices.Contains(pb.satp, true) }

func ExamplePackI8PanelsBT() {
	// Two output columns of three weights each, in the (n, k) layout
	// weight tensors use; activations with row stride 4 > k exercise the
	// strided-operand form.
	w := []int8{1, 2, 3, -1, -2, -3}
	pb, _ := PackI8PanelsBT(w, 3, 2)
	a := []uint8{1, 1, 1, 0, 2, 2, 2, 0, 0, 0, 0} // 2 rows, lda 4, +3 pad
	dst := make([]int32, 2*2)
	_ = MatMulU8I8PackedInto(dst, a, pb, 2, 4)
	fmt.Println(dst, saturating(pb))
	// Output: [6 -6 12 -12] false
}
