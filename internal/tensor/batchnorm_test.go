package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// checkBNKernels runs the four batch-norm channel kernels over one channel
// of n planes (plane floats, stride floats apart) under the active dispatch
// and demands the bits the portable kernels produce: equal float64
// statistics, and outputs equal word for word over the whole buffer — the
// gaps between planes stay poisoned, and so do the canary words past the
// last plane.
func checkBNKernels(t *testing.T, seed int64, n, plane, stride int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	span := (n-1)*stride + plane
	mu, sd := 4*rng.NormFloat64(), math.Exp(2*rng.NormFloat64())
	x, dy := poisoned(span), poisoned(span)
	for i := 0; i < n; i++ {
		for j := 0; j < plane; j++ {
			x[i*stride+j] = float32(mu + sd*rng.NormFloat64())
			dy[i*stride+j] = float32(rng.NormFloat64())
		}
	}
	scale, shift := float32(rng.NormFloat64()), float32(rng.NormFloat64())
	type result struct {
		mean, variance, sumDy, sumDyXc float64
		y, dx                          []float32
	}
	run := func() (r result) {
		r.mean, r.variance = ChannelMoments(x[:span], n, plane, stride)
		r.y = poisoned(span)
		ChannelAffine(r.y[:span], x[:span], n, plane, stride, scale, shift)
		r.sumDy, r.sumDyXc = ChannelGradSums(dy[:span], x[:span], n, plane, stride, r.mean)
		cnt := float64(n * plane)
		k := r.sumDyXc / (r.variance + 1e-5) / cnt
		r.dx = poisoned(span)
		ChannelGradInput(r.dx[:span], dy[:span], x[:span], n, plane, stride,
			float32(r.mean), float32(r.sumDy/cnt), float32(k), scale)
		return r
	}
	simd := SIMDActive()
	SetSIMD(false)
	want := run()
	SetSIMD(simd)
	got := run()
	for _, s := range []struct {
		name      string
		got, want float64
	}{
		{"mean", got.mean, want.mean},
		{"variance", got.variance, want.variance},
		{"Σdy", got.sumDy, want.sumDy},
		{"Σdy·(x−mean)", got.sumDyXc, want.sumDyXc},
	} {
		if math.Float64bits(s.got) != math.Float64bits(s.want) {
			t.Fatalf("n=%d plane=%d stride=%d: %s = %v, portable %v", n, plane, stride, s.name, s.got, s.want)
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
				t.Fatalf("n=%d plane=%d stride=%d: %s[%d] = %#x, portable %#x", n, plane, stride, o.name, i,
					math.Float32bits(o.got[i]), math.Float32bits(o.want[i]))
			}
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
					checkBNKernels(t, int64(plane*100+n*10+stride), n, plane, stride)
				}
			}
		}
	})
}

// FuzzBatchNormKernels drives fuzzed plane lengths, batch sizes, plane gaps
// and payloads through the same differential. Plain `go test` replays the
// seeds; CI also mutates for a bounded -fuzztime.
func FuzzBatchNormKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 16; trial++ {
		f.Add(rng.Int63(), uint8(rng.Intn(256)), uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)))
	}
	f.Add(int64(1), uint8(63), uint16(255), uint8(0)) // 64 planes of 256
	f.Fuzz(func(t *testing.T, seed int64, n uint8, plane uint16, gap uint8) {
		nn, p := 1+int(n%64), 1+int(plane%300)
		eachDispatch(t, func(t *testing.T) { checkBNKernels(t, seed, nn, p, p+int(gap%40)) })
	})
}
