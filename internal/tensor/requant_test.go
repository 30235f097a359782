package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// requantRef recomputes the pinned semantics independently of
// requantQ31One, using big-ish arithmetic spelled out step by step, so a
// bug in the shared scalar helper cannot hide from the kernels it
// anchors.
func requantRef(acc int32, corr int64, m0, rsh, zp, lo int32) uint8 {
	v := int64(acc) + corr
	if v > math.MaxInt32 {
		v = math.MaxInt32
	}
	if v < math.MinInt32 {
		v = math.MinInt32
	}
	// Rounding shift, half toward +∞: floor((v·m0 + 2^(rsh−1)) / 2^rsh).
	num := v*int64(m0) + int64(1)<<(uint(rsh)-1)
	r := num >> uint(rsh)
	if r > math.MaxInt32 {
		r = math.MaxInt32
	}
	if r < math.MinInt32 {
		r = math.MinInt32
	}
	y := r + int64(zp)
	if y < int64(lo) {
		y = int64(lo)
	}
	if y > 255 {
		y = 255
	}
	return uint8(y)
}

// requantCase is one fuzz draw: a channel parameter set plus accumulator
// extremes designed to hit both int32 saturations and the Q31 ties.
type requantCase struct {
	m0, rsh int32
	corr    int64
}

func randRequantCase(rng *rand.Rand) requantCase {
	c := requantCase{
		m0:   rng.Int31(),                   // [0, 2^31)
		rsh:  1 + rng.Int31n(62),            // [1, 62]
		corr: rng.Int63n(1<<33) - (1 << 32), // beyond int32 range both ways
	}
	switch rng.Intn(8) {
	case 0:
		c.m0 = 0
	case 1:
		c.m0 = math.MaxInt32
	case 2:
		c.rsh = 1
	case 3:
		c.rsh = 62
	case 4:
		c.corr = math.MaxInt32 * 2
	case 5:
		c.corr = math.MinInt32 * 2
	}
	return c
}

func randAcc(rng *rand.Rand) int32 {
	switch rng.Intn(6) {
	case 0:
		return math.MaxInt32
	case 1:
		return math.MinInt32
	case 2:
		return 0
	default:
		return int32(rng.Uint32())
	}
}

// TestRequantQ31ScalarPinned pins the rounding contract: the shared
// scalar helper must agree with the independently written reference on
// directed tie cases and saturation extremes.
func TestRequantQ31ScalarPinned(t *testing.T) {
	cases := []struct {
		acc     int32
		corr    int64
		m0, rsh int32
		zp, lo  int32
	}{
		// Q31 ties: v·m0 exactly half a quantum. With m0 = 2^30 and
		// rsh = 31, acc = 1 gives prod = 2^30 = 1<<(rsh−1): rounds up to 1.
		{1, 0, 1 << 30, 31, 0, 0},
		// Negative tie: acc = −1 gives prod = −2^30, plus 2^30 = 0: rounds
		// to 0 (half toward +∞, not away from zero).
		{-1, 0, 1 << 30, 31, 0, 0},
		// Odd multiples of the tie: ±3·2^30.
		{3, 0, 1 << 30, 31, 0, 0},
		{-3, 0, 1 << 30, 31, 0, 0},
		// Saturating adds on both sides.
		{math.MaxInt32, 1 << 40, 1 << 30, 31, 0, 0},
		{math.MinInt32, -(1 << 40), 1 << 30, 31, 10, 0},
		// Output saturation through a huge multiplier and tiny shift.
		{math.MaxInt32, 0, math.MaxInt32, 1, 0, 0},
		{math.MinInt32, 0, math.MaxInt32, 1, 7, 3},
		// Degenerate zero multiplier: everything lands on zp (clamped).
		{12345, 678, 0, 31, 100, 0},
		{12345, 678, 0, 31, 100, 200},
	}
	for _, c := range cases {
		got := requantQ31One(c.acc, c.corr, c.m0, c.rsh, c.zp, c.lo)
		want := requantRef(c.acc, c.corr, c.m0, c.rsh, c.zp, c.lo)
		if got != want {
			t.Errorf("requantQ31One(%d, %d, %d, %d, %d, %d) = %d, want %d",
				c.acc, c.corr, c.m0, c.rsh, c.zp, c.lo, got, want)
		}
	}
	// The documented tie direction, explicitly: +0.5 → 1, −0.5 → 0.
	if got := requantQ31One(1, 0, 1<<30, 31, 0, 0); got != 1 {
		t.Errorf("positive tie rounded to %d, want 1", got)
	}
	if got := requantQ31One(-1, 0, 1<<30, 31, 0, 0); got != 0 {
		t.Errorf("negative tie rounded to %d, want 0 (half toward +∞)", got)
	}
}

// runBothDispatches runs fn under the portable and (when available) the
// assembly dispatch.
func runBothDispatches(t *testing.T, fn func(t *testing.T, simd bool)) {
	t.Helper()
	for _, on := range []bool{false, true} {
		prev := SetSIMD(on)
		if on && !SIMDActive() {
			SetSIMD(prev)
			t.Log("no SIMD kernels on this host; asm side skipped")
			continue
		}
		fn(t, on)
		SetSIMD(prev)
	}
}

// TestRequantQ31RowsFuzz drives the rows kernel across random shapes,
// strides and parameter draws (including saturation extremes and ties)
// and demands bit-identity with the scalar reference under both
// dispatches.
func TestRequantQ31RowsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	runBothDispatches(t, func(t *testing.T, simd bool) {
		for trial := 0; trial < 200; trial++ {
			m := 1 + rng.Intn(9)
			nc := 1 + rng.Intn(21)
			lda := nc + rng.Intn(5)
			ldd := nc + rng.Intn(5)
			zp := int32(rng.Intn(256))
			lo := int32(rng.Intn(256))
			m0 := make([]int32, nc)
			rsh := make([]int32, nc)
			corr := make([]int64, nc)
			for c := range m0 {
				cs := randRequantCase(rng)
				m0[c], rsh[c], corr[c] = cs.m0, cs.rsh, cs.corr
			}
			acc := make([]int32, (m-1)*lda+nc)
			for i := range acc {
				acc[i] = randAcc(rng)
			}
			dst := make([]uint8, (m-1)*ldd+nc)
			RequantQ31Rows(dst, acc, m0, rsh, corr, zp, lo, m, nc, lda, ldd)
			for i := 0; i < m; i++ {
				for c := 0; c < nc; c++ {
					want := requantRef(acc[i*lda+c], corr[c], m0[c], rsh[c], zp, lo)
					if got := dst[i*ldd+c]; got != want {
						t.Fatalf("simd=%v trial %d: rows(%d,%d) lda=%d ldd=%d at (%d,%d): got %d, want %d (acc=%d m0=%d rsh=%d corr=%d zp=%d lo=%d)",
							simd, trial, m, nc, lda, ldd, i, c, got, want,
							acc[i*lda+c], m0[c], rsh[c], corr[c], zp, lo)
					}
				}
			}
		}
	})
}

// TestRequantQ31TransposeFuzz does the same for the transposing conv
// epilogue form, covering position counts around the 8-wide tile edge.
func TestRequantQ31TransposeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	runBothDispatches(t, func(t *testing.T, simd bool) {
		for trial := 0; trial < 200; trial++ {
			np := 1 + rng.Intn(40)
			nc := 1 + rng.Intn(13)
			lda := nc + rng.Intn(4)
			ldd := np + rng.Intn(4)
			zp := int32(rng.Intn(256))
			lo := int32(rng.Intn(256))
			m0 := make([]int32, nc)
			rsh := make([]int32, nc)
			corr := make([]int64, nc)
			for c := range m0 {
				cs := randRequantCase(rng)
				m0[c], rsh[c], corr[c] = cs.m0, cs.rsh, cs.corr
			}
			acc := make([]int32, (np-1)*lda+nc)
			for i := range acc {
				acc[i] = randAcc(rng)
			}
			dst := make([]uint8, (nc-1)*ldd+np)
			RequantQ31Transpose(dst, acc, m0, rsh, corr, zp, lo, np, nc, lda, ldd)
			for p := 0; p < np; p++ {
				for c := 0; c < nc; c++ {
					want := requantRef(acc[p*lda+c], corr[c], m0[c], rsh[c], zp, lo)
					if got := dst[c*ldd+p]; got != want {
						t.Fatalf("simd=%v trial %d: trans(%d,%d) lda=%d ldd=%d at (p=%d,c=%d): got %d, want %d (acc=%d m0=%d rsh=%d corr=%d zp=%d lo=%d)",
							simd, trial, np, nc, lda, ldd, p, c, got, want,
							acc[p*lda+c], m0[c], rsh[c], corr[c], zp, lo)
					}
				}
			}
		}
	})
}

// TestRequantQ31ContractPanics pins the argument contract: domain
// violations must fail loudly, not corrupt memory.
func TestRequantQ31ContractPanics(t *testing.T) {
	dst := make([]uint8, 8)
	acc := make([]int32, 8)
	ok := []int32{1 << 30}
	cases := []struct {
		name string
		fn   func()
	}{
		{"rsh0", func() {
			RequantQ31Rows(dst, acc, ok, []int32{0}, []int64{0}, 0, 0, 1, 1, 1, 1)
		}},
		{"rsh63", func() {
			RequantQ31Rows(dst, acc, ok, []int32{63}, []int64{0}, 0, 0, 1, 1, 1, 1)
		}},
		{"negM0", func() {
			RequantQ31Rows(dst, acc, []int32{-1}, []int32{31}, []int64{0}, 0, 0, 1, 1, 1, 1)
		}},
		{"zp256", func() {
			RequantQ31Rows(dst, acc, ok, []int32{31}, []int64{0}, 256, 0, 1, 1, 1, 1)
		}},
		{"shortAcc", func() {
			RequantQ31Rows(dst, acc[:3], ok, []int32{31}, []int64{0}, 0, 0, 2, 2, 2, 2)
		}},
		{"shortDstTrans", func() {
			RequantQ31Transpose(dst[:3], acc, ok, []int32{31}, []int64{0}, 0, 0, 4, 1, 1, 4)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func BenchmarkRequantQ31Transpose(b *testing.B) {
	// The conv epilogue shape: one 256-position tile across 64 channels.
	const np, nc = 256, 64
	m0 := make([]int32, nc)
	rsh := make([]int32, nc)
	corr := make([]int64, nc)
	for c := range m0 {
		m0[c] = 1<<30 + int32(c)*12345
		rsh[c] = 38
		corr[c] = int64(c) * 1000
	}
	acc := make([]int32, np*nc)
	for i := range acc {
		acc[i] = int32(i*2654435761) % (1 << 20)
	}
	dst := make([]uint8, nc*np)
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		if simd && !SIMDActive() {
			SetSIMD(prev)
			continue
		}
		b.Run(fmt.Sprintf("simd=%v", simd), func(b *testing.B) {
			b.SetBytes(np * nc * 4)
			for i := 0; i < b.N; i++ {
				RequantQ31Transpose(dst, acc, m0, rsh, corr, 3, 0, np, nc, nc, np)
			}
		})
		SetSIMD(prev)
	}
}

// TestRequantZipTransposeModel validates, on any architecture, the ZIP
// cascade the NEON transposed-form kernel (kernels_requant_arm64.s) uses
// to turn four position-major int32x4 results into channel-major rows.
// zip1/zip2 are modeled exactly per the ARM pseudocode on .4S (int32
// lanes) and .2D (adjacent int32 pairs); the cascade must be a 4×4
// transpose. This pins the algebra so an encoding or operand-order slip
// in the assembly cannot hide behind "only fails under qemu".
func TestRequantZipTransposeModel(t *testing.T) {
	type vec = [4]int32
	zip1s := func(n, m vec) vec { return vec{n[0], m[0], n[1], m[1]} }
	zip2s := func(n, m vec) vec { return vec{n[2], m[2], n[3], m[3]} }
	zip1d := func(n, m vec) vec { return vec{n[0], n[1], m[0], m[1]} }
	zip2d := func(n, m vec) vec { return vec{n[2], n[3], m[2], m[3]} }

	// Position p's requantized quad: lane c holds channel c's value.
	var pos [4]vec
	for p := range pos {
		for c := range pos[p] {
			pos[p][c] = int32(100*p + c)
		}
	}
	v0 := zip1s(pos[0], pos[1])
	v1 := zip2s(pos[0], pos[1])
	v2 := zip1s(pos[2], pos[3])
	v3 := zip2s(pos[2], pos[3])
	ch := [4]vec{zip1d(v0, v2), zip2d(v0, v2), zip1d(v1, v3), zip2d(v1, v3)}
	for c := 0; c < 4; c++ {
		for p := 0; p < 4; p++ {
			if got, want := ch[c][p], pos[p][c]; got != want {
				t.Fatalf("channel %d position %d: got %d want %d", c, p, got, want)
			}
		}
	}
}
