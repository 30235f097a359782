package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
// dispatches. The accumulator tile's last row ends at a guard page.
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
			acc := guarded[int32](t, (m-1)*lda+nc, 0)
			for i := range acc {
				acc[i] = randAcc(rng)
			}
			dst := make([]uint8, (m-1)*ldd+nc)
			r := mustRequant(t, m0, rsh, corr, zp, lo)
			faultFree(t, fmt.Sprintf("simd=%v trial %d: rows(%d,%d) lda=%d", simd, trial, m, nc, lda), func() {
				RequantQ31Rows(dst, acc, r, m, lda, ldd)
			})
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

// mustRequant builds the Requant of a parameter draw inside the contract.
func mustRequant(t testing.TB, m0, rsh []int32, corr []int64, zp, lo int32) *Requant {
	t.Helper()
	r, err := NewRequant(m0, rsh, corr, zp, lo)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestNewRequantErrors pins the argument contract NewRequant checks once
// per layer: every domain violation is an error naming its channel (or
// the channel counts), never a Requant a kernel would run.
func TestNewRequantErrors(t *testing.T) {
	ok := []int32{1 << 30, 1 << 30, 1 << 30}
	sh := []int32{31, 31, 31}
	corr := make([]int64, 3)
	cases := []struct {
		name, want string
		m0, rsh    []int32
		corr       []int64
		zp, lo     int32
	}{
		{"negM0", "channel 2", []int32{1, 1, -1}, sh, corr, 0, 0},
		{"rsh0", "channel 1", ok, []int32{31, 0, 31}, corr, 0, 0},
		{"rsh63", "channel 0", ok, []int32{63, 31, 31}, corr, 0, 0},
		{"zp256", "zero point 256", ok, sh, corr, 256, 0},
		{"zpNeg", "zero point -1", ok, sh, corr, -1, 0},
		{"lo256", "floor 256", ok, sh, corr, 0, 256},
		{"loNeg", "floor -1", ok, sh, corr, 0, -1},
		{"shortRsh", "3/2/3 channels", ok, sh[:2], corr, 0, 0},
		{"shortCorr", "3/3/1 channels", ok, sh, corr[:1], 0, 0},
		{"noChannels", "no channels", nil, nil, nil, 0, 0},
	}
	for _, c := range cases {
		r, err := NewRequant(c.m0, c.rsh, c.corr, c.zp, c.lo)
		if err == nil || r != nil {
			t.Errorf("%s: NewRequant = %v, %v; want an error", c.name, r, err)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
	if _, err := NewRequant([]int32{0, math.MaxInt32}, []int32{1, 62}, []int64{math.MinInt64, math.MaxInt64}, 255, 255); err != nil {
		t.Errorf("contract edges rejected: %v", err)
	}
}

// TestRequantQ31ContractPanics pins the shape contract of the kernels
// and the domain contract of the transposing form, which takes its
// parameters per call: violations must fail loudly, not corrupt memory.
func TestRequantQ31ContractPanics(t *testing.T) {
	dst := make([]uint8, 8)
	acc := make([]int32, 8)
	ok := []int32{1 << 30}
	two := mustRequant(t, []int32{1 << 30, 1 << 30}, []int32{31, 31}, []int64{0, 0}, 0, 0)
	cases := []struct {
		name string
		fn   func()
	}{
		{"shortAcc", func() {
			RequantQ31Rows(dst, acc[:3], two, 2, 2, 2)
		}},
		{"shortDst", func() {
			RequantQ31Rows(dst[:3], acc, two, 2, 2, 2)
		}},
		{"narrowLda", func() {
			RequantQ31Rows(dst, acc, two, 1, 1, 2)
		}},
		{"rsh63Trans", func() {
			RequantQ31Transpose(dst, acc, ok, []int32{63}, []int64{0}, 0, 0, 4, 1, 1, 4)
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

// FuzzRequantQ31Rows drives RequantQ31Rows under both dispatches against
// the independent reference, byte for byte: shapes m ≥ 1 and nc ∈ [1, 20]
// (every 8-, 4- and one-channel tail), row strides past nc, canary bytes
// after every destination row, and per-channel draws that pin rsh to
// 1/31/32/33/62, m0 to 0 or 2^31−1, corr beyond ±2^32, with zp/lo at
// their edges and accumulators at both int32 extremes and next to the
// points where the output saturates at lo and at 255. The accumulator
// tile runs twice: its last row ending at a guard page, and a copy
// starting at one.
func FuzzRequantQ31Rows(f *testing.F) {
	for i, sd := range []struct{ m, nc, pa, pd, zp, lo uint8 }{
		{1, 1, 0, 0, 0, 0}, {3, 4, 1, 2, 255, 255}, {5, 8, 0, 3, 128, 0},
		{2, 12, 3, 0, 0, 255}, {7, 19, 2, 1, 37, 200}, {4, 20, 0, 0, 255, 0},
		{0, 3, 0, 0, 9, 0}, {2, 11, 1, 0, 200, 3}, // nc 4 and 12 end in a 4-channel group
	} {
		f.Add(int64(i), sd.m, sd.nc, sd.pa, sd.pd, sd.zp, sd.lo)
	}
	f.Fuzz(func(t *testing.T, seed int64, mb, ncb, pa, pd, zpb, lob uint8) {
		rng := rand.New(rand.NewSource(seed))
		m, nc := 1+int(mb%9), 1+int(ncb%20)
		lda, ldd := nc+int(pa%5), nc+1+int(pd%4)
		zp, lo := int32(zpb), int32(lob)
		m0 := make([]int32, nc)
		rsh := make([]int32, nc)
		corr := make([]int64, nc)
		for c := range m0 {
			cs := randRequantCase(rng)
			m0[c], rsh[c], corr[c] = cs.m0, cs.rsh, cs.corr
			switch rng.Intn(4) {
			case 0:
				rsh[c] = []int32{1, 31, 32, 33, 62}[rng.Intn(5)]
			case 1:
				m0[c] = []int32{0, math.MaxInt32, 1, 1 << 30}[rng.Intn(4)]
			case 2:
				corr[c] = []int64{1<<32 + 7, -(1 << 32) - 7, 1 << 40, -(1 << 40), 0}[rng.Intn(5)]
			}
		}
		acc := guarded[int32](t, (m-1)*lda+nc, 0)
		for i := range acc {
			c := i % lda
			if c >= nc || rng.Intn(3) != 0 {
				acc[i] = randAcc(rng)
				continue
			}
			// Next to a saturation point: the accumulator at which
			// acc+corr times m0·2^−rsh reaches lo−zp or 255−zp.
			edge := float64(255 - zp)
			if rng.Intn(2) == 0 {
				edge = float64(lo - zp)
			}
			a := float64(int64(rng.Intn(7))-3) - float64(corr[c])
			if m0[c] > 0 {
				a += math.Ldexp(edge, int(rsh[c])) / float64(m0[c])
			}
			acc[i] = int32(max(math.MinInt32, min(math.MaxInt32, a)))
		}
		want := make([]uint8, (m-1)*ldd+nc)
		for i := 0; i < m; i++ {
			for c := 0; c < nc; c++ {
				want[i*ldd+c] = requantRef(acc[i*lda+c], corr[c], m0[c], rsh[c], zp, lo)
			}
		}
		accStart := guardedStart[int32](t, len(acc))
		copy(accStart, acc)
		const canary = 0xA5
		r := mustRequant(t, m0, rsh, corr, zp, lo)
		eachDispatch(t, func(t *testing.T) {
			for _, src := range [][]int32{acc, accStart} {
				dst := make([]uint8, m*ldd)
				for i := range dst {
					dst[i] = canary
				}
				faultFree(t, fmt.Sprintf("rows(%d,%d) lda=%d", m, nc, lda), func() {
					RequantQ31Rows(dst, src, r, m, lda, ldd)
				})
				for i := 0; i < m; i++ {
					for c := 0; c < ldd; c++ {
						w := uint8(canary)
						if c < nc {
							w = want[i*ldd+c]
						}
						if got := dst[i*ldd+c]; got != w {
							t.Fatalf("rows(%d,%d) lda=%d ldd=%d at (%d,%d): got %d, want %d (acc=%d m0=%d rsh=%d corr=%d zp=%d lo=%d)",
								m, nc, lda, ldd, i, c, got, w, acc[i*lda+min(c, nc-1)], m0[min(c, nc-1)],
								rsh[min(c, nc-1)], corr[min(c, nc-1)], zp, lo)
						}
					}
				}
			}
		})
	})
}

// BenchmarkRequantQ31Rows times the conv epilogue at the band tiles of
// SmallCNN at 16×16 (positions × output channels: b1 128×16, b2 and b3
// 64×16 and 64×32, b4 16×32) under both dispatches, in ns per element.
func BenchmarkRequantQ31Rows(b *testing.B) {
	for _, sh := range [][2]int{{128, 16}, {64, 16}, {64, 32}, {16, 32}} {
		m, nc := sh[0], sh[1]
		m0 := make([]int32, nc)
		rsh := make([]int32, nc)
		corr := make([]int64, nc)
		for c := range m0 {
			m0[c], rsh[c], corr[c] = 1<<30+int32(c)*12345, 38, int64(c)*1000-8000
		}
		acc := make([]int32, m*nc)
		for i := range acc {
			acc[i] = int32(i*2654435761) % (1 << 20)
		}
		dst := make([]uint8, m*nc)
		r := mustRequant(b, m0, rsh, corr, 3, 3)
		for _, simd := range []bool{false, true} {
			prev := SetSIMD(simd)
			if simd && !SIMDActive() {
				SetSIMD(prev)
				continue
			}
			b.Run(fmt.Sprintf("%dx%d/simd=%v", m, nc, simd), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					RequantQ31Rows(dst, acc, r, m, nc, nc)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*nc), "ns/elem")
			})
			SetSIMD(prev)
		}
	}
}

// LowerMultiplier must satisfy MulQ31(acc, m0, rsh) ≈ round(acc·m)
// across magnitudes spanning the multipliers real grids produce (the
// expectation saturates to int32 like MulQ31 itself: the output clamp
// is part of the pinned kernel semantics).
func TestLowerMultiplierRoundTrip(t *testing.T) {
	ms := []float64{1e-6, 3.7e-4, 0.0021, 0.04, 0.5, 0.9999, 1.0, 3.25, 117.0}
	accs := []int64{0, 1, -1, 7, -13, 100, -255, 1 << 15, -(1 << 20), 1 << 28}
	for _, m := range ms {
		m0, rsh := LowerMultiplier(m)
		for _, a := range accs {
			got := MulQ31(a, m0, rsh)
			want := float64(a) * m
			if want > math.MaxInt32 {
				want = math.MaxInt32
			} else if want < math.MinInt32 {
				want = math.MinInt32
			}
			// One unit of slack plus the Q31 mantissa's relative error.
			tol := 1.0 + math.Abs(want)*1e-8
			if math.Abs(float64(got)-want) > tol {
				t.Errorf("m=%v acc=%d: MulQ31 = %d, want ~%v", m, a, got, want)
			}
		}
	}
}

func TestLowerMultiplierDegenerate(t *testing.T) {
	if m0, _ := LowerMultiplier(0); m0 != 0 {
		t.Errorf("m=0 lowered to m0=%d", m0)
	}
	if m0, _ := LowerMultiplier(-1); m0 != 0 {
		t.Errorf("m<0 lowered to m0=%d", m0)
	}
	if m0, _ := LowerMultiplier(math.NaN()); m0 != 0 {
		t.Errorf("NaN lowered to m0=%d", m0)
	}
	// Absurdly small multipliers requantize everything to zero.
	m0, rsh := LowerMultiplier(1e-12)
	if got := MulQ31(1<<28, m0, rsh); got != 0 {
		t.Errorf("tiny multiplier requantized %d", got)
	}
}

func TestRequantizeSaturates(t *testing.T) {
	m0, rsh := LowerMultiplier(1.0)
	// Accumulators beyond ±2^31 clamp instead of overflowing the product.
	big := int64(1) << 40
	if got := int64(MulQ31(big, m0, rsh)); got < (1<<31)-2 || got > (1<<31)+1 {
		t.Errorf("overflowing acc requantized to %d", got)
	}
	if got := int64(MulQ31(-big, m0, rsh)); got > -(1<<31)+2 || got < -(1<<31)-1 {
		t.Errorf("underflowing acc requantized to %d", got)
	}
	if got := clampU8(300, 0); got != 255 {
		t.Errorf("clampU8(300) = %d", got)
	}
	if got := clampU8(-7, 0); got != 0 {
		t.Errorf("clampU8(-7) = %d", got)
	}
	if got := clampU8(3, 12); got != 12 {
		t.Errorf("clampU8 below ReLU floor = %d, want 12", got)
	}
}
