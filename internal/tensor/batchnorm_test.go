package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// bnSpecials are the payloads that decide a rectifier's edges: NaN, both
// zeros and both infinities.
var bnSpecials = []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1))}

// bnAddSpecials are the affine addend's payloads: bnSpecials and
// subnormals of both signs, which an add must neither flush nor round.
var bnAddSpecials = []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), math.Float32frombits(0x807ffffe)}

// bnRects are the rectifier arguments of the affine and gradient kernels:
// none, ReLU and ReLU6.
var bnRects = []struct {
	name string
	r    Rect
	cap  float32
}{{"none", Rect{}, 0}, {"relu", Rectifier(0), 0}, {"relu6", Rectifier(6), 6}}

// rectifyRef and rectifyGradRef are nn.ReLU's rectifier and gradient mask
// (nn's rectify / rectifyGrad, element by element) for a cap c.
func rectifyRef(v, c float32) float32 {
	if c <= 0 {
		c = float32(math.Inf(1))
	}
	return min(max(v, 0), c)
}

func rectifyGradRef(g, y, c float32) float32 {
	top := int32(math.MaxInt32)
	if c > 0 {
		top = int32(math.Float32bits(c))
	}
	u := int32(math.Float32bits(y))
	return math.Float32frombits(math.Float32bits(g) & uint32((-u&(u-top))>>31))
}

// checkBNKernels runs the four batch-norm channel kernels over one channel
// of n planes (plane floats, stride floats apart) under the active dispatch
// and each rectifier argument, and demands the bits the portable kernels
// produce: equal float64 statistics, and outputs equal word for word over
// the whole buffer — the gaps between planes stay poisoned, and so do the
// canary words past the last plane. It also demands that the portable
// rectified passes are the unfused ones: the affine output then nn's
// rectifier, and the gradient passes over dy masked as nn's rectifyGrad
// masks it. Each rectifier runs without and with an affine addend (a
// residual block's shortcut output), whose planes end against a
// PROT_NONE page: with it, the portable affine output must be the plain
// one plus the addend, then rectified. With specials > 0 about one
// payload in specials is one of bnSpecials (bnAddSpecials in the addend).
func checkBNKernels(t *testing.T, seed int64, n, plane, stride, specials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	span := (n-1)*stride + plane
	mu, sd := 4*rng.NormFloat64(), math.Exp(2*rng.NormFloat64())
	x, dy := poisoned(span), poisoned(span)
	add := guarded[float32](t, span, 0)
	copy(add, poisoned(span))
	draw := func(v float32, specs []float32) float32 {
		if specials > 0 && rng.Intn(specials) == 0 {
			return specs[rng.Intn(len(specs))]
		}
		return v
	}
	for i := 0; i < n; i++ {
		for j := 0; j < plane; j++ {
			x[i*stride+j] = draw(float32(mu+sd*rng.NormFloat64()), bnSpecials)
			dy[i*stride+j] = draw(float32(rng.NormFloat64()), bnSpecials)
			add[i*stride+j] = draw(float32(4*rng.NormFloat64()), bnAddSpecials)
		}
	}
	// The output straddles 0 and 6 whatever the input's spread.
	scale := float32(4 * rng.NormFloat64() / sd)
	shift := float32(2 + 4*rng.NormFloat64() - mu*float64(scale))
	if specials > 0 && rng.Intn(2) == 0 {
		shift = bnSpecials[2] // −0: a −0 input gives a −0 output, which ReLU turns into +0
	}
	// The input gradient's operands are drawn, not taken from the sums: a
	// NaN sum's payload is the lane fold's choice (see same).
	mdy, k := float32(rng.NormFloat64()/8), float32(rng.NormFloat64()/(sd*sd))
	type result struct {
		mean, variance, sumDy, sumDyXc float64
		y, dx                          []float32
	}
	run := func(r Rect, dy, add []float32) (res result) {
		res.mean, res.variance = ChannelMoments(x[:span], n, plane, stride)
		res.y = poisoned(span)
		ChannelAffine(res.y[:span], x[:span], add, n, plane, stride, scale, shift, r)
		res.sumDy, res.sumDyXc = ChannelGradSums(dy[:span], x[:span], res.y[:span], n, plane, stride, mu, r)
		res.dx = poisoned(span)
		ChannelGradInput(res.dx[:span], dy[:span], x[:span], res.y[:span], n, plane, stride, float32(mu), mdy, k, scale, r)
		return res
	}
	same := func(tag string, got, want result) {
		t.Helper()
		for _, s := range []struct {
			name      string
			got, want float64
		}{
			{"mean", got.mean, want.mean},
			{"variance", got.variance, want.variance},
			{"Σdy", got.sumDy, want.sumDy},
			{"Σdy·(x−mean)", got.sumDyXc, want.sumDyXc},
		} {
			// A NaN statistic matches any NaN: which payload a sum of NaNs
			// keeps depends on the lane fold, and no output reads it.
			if math.Float64bits(s.got) != math.Float64bits(s.want) && !(math.IsNaN(s.got) && math.IsNaN(s.want)) {
				t.Fatalf("%s n=%d plane=%d stride=%d: %s = %v, want %v", tag, n, plane, stride, s.name, s.got, s.want)
			}
		}
		checkUntouched(t, "affine output", got.y, span)
		checkUntouched(t, "input gradient", got.dx, span)
		for _, o := range []struct {
			name      string
			got, want []float32
		}{{"y", got.y, want.y}, {"dx", got.dx, want.dx}} {
			for i := range o.want {
				if math.Float32bits(o.got[i]) != math.Float32bits(o.want[i]) {
					t.Fatalf("%s n=%d plane=%d stride=%d: %s[%d] = %#x, want %#x", tag, n, plane, stride, o.name, i,
						math.Float32bits(o.got[i]), math.Float32bits(o.want[i]))
				}
			}
		}
	}
	simd := SIMDActive()
	for _, a := range [][]float32{nil, add} {
		for _, rc := range bnRects {
			tag := rc.name
			if a != nil {
				tag += "+addend"
			}
			SetSIMD(false)
			want := run(rc.r, dy, a)
			if rc.r.on || a != nil {
				// The unfused chain: the plain affine map, the residual
				// add, nn's rectifier, and the plain gradient passes over
				// the masked dy.
				plain := run(Rect{}, dy, nil)
				masked := poisoned(span)
				for i := 0; i < n; i++ {
					for j := i * stride; j < i*stride+plane; j++ {
						if a != nil {
							plain.y[j] += a[j]
						}
						masked[j] = dy[j]
						if rc.r.on {
							plain.y[j] = rectifyRef(plain.y[j], rc.cap)
							masked[j] = rectifyGradRef(dy[j], plain.y[j], rc.cap)
						}
					}
				}
				unfused := run(Rect{}, masked, nil)
				unfused.y = plain.y
				same(tag+" portable vs unfused", want, unfused)
			}
			SetSIMD(simd)
			var got result
			faultFree(t, tag+" kernels", func() { got = run(rc.r, dy, a) })
			same(tag+" dispatch vs portable", got, want)
		}
	}
}

// TestBatchNormKernelsMatchPortable sweeps planes of 1–17 floats (every
// partial-group length, alone and after one or two whole groups) and 256,
// batches of 1–9 planes, and three strides: contiguous planes, a channel of
// a three-channel tensor, and an odd gap.
func TestBatchNormKernelsMatchPortable(t *testing.T) {
	planes := []int{256}
	for p := 1; p <= 17; p++ {
		planes = append(planes, p)
	}
	eachDispatch(t, func(t *testing.T) {
		for _, plane := range planes {
			for n := 1; n <= 9; n++ {
				for _, stride := range []int{plane, 3 * plane, plane + 5} {
					checkBNKernels(t, int64(plane*100+n*10+stride), n, plane, stride, 0)
					checkBNKernels(t, int64(plane*100+n*10+stride), n, plane, stride, 5)
				}
			}
		}
	})
}

// FuzzBatchNormKernels drives fuzzed plane lengths, batch sizes, plane gaps,
// payloads and special-value densities (0: none) through the same
// differential. Plain `go test` replays the seeds; CI also mutates for a
// bounded -fuzztime.
func FuzzBatchNormKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 16; trial++ {
		f.Add(rng.Int63(), uint8(rng.Intn(256)), uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)), uint8(rng.Intn(4)))
	}
	f.Add(int64(1), uint8(63), uint16(255), uint8(0), uint8(0)) // 64 planes of 256
	f.Add(int64(2), uint8(2), uint16(12), uint8(3), uint8(2))   // a partial group, half specials
	f.Fuzz(func(t *testing.T, seed int64, n uint8, plane uint16, gap, specials uint8) {
		nn, p := 1+int(n%64), 1+int(plane%300)
		eachDispatch(t, func(t *testing.T) { checkBNKernels(t, seed, nn, p, p+int(gap%40), int(specials%16)) })
	})
}
