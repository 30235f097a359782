package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// The branchy rectifier loops rectify / rectifyGrad replaced, kept as
// their oracle: a sign test per element and a boolean pass-through mask.

// reluBranchy is the old ReLU.Forward loop (limit 0 = unbounded).
func reluBranchy(x []float32, limit float32) (y []float32, mask []bool) {
	y, mask = make([]float32, len(x)), make([]bool, len(x))
	for i, v := range x {
		switch {
		case v <= 0:
			y[i] = 0
		case limit > 0 && v >= limit:
			y[i] = limit
		default:
			y[i] = v
			mask[i] = true // pass-through region
		}
	}
	return y, mask
}

// residualReLUBranchy is the old in-place output activation of Residual.
func residualReLUBranchy(d []float32) (mask []bool) {
	mask = make([]bool, len(d))
	for i, v := range d {
		if v > 0 {
			mask[i] = true
		} else {
			d[i] = 0
		}
	}
	return mask
}

// maskGradBranchy is the backward loop both layers shared.
func maskGradBranchy(dout []float32, mask []bool) []float32 {
	dx := make([]float32, len(dout))
	for i, v := range dout {
		if mask[i] {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// rectifierInputs is a non-NaN stress vector longer than two rectifier
// blocks: signed zeros, denormals, infinities, the exact clipping point
// and its neighbours, then random values.
func rectifierInputs(rng *tensor.RNG) []float32 {
	six := float32(6)
	x := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), six, math.Nextafter32(six, 0), math.Nextafter32(six, 7),
		-six, math.MaxFloat32, -math.MaxFloat32, 1e-30, -1e-30}
	for len(x) < 2*rectBlock+77 {
		x = append(x, float32(rng.Norm())*4)
	}
	return x
}

func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), branchy loop %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestRectifierMatchesBranchyLoops pins ReLU, ReLU6 and Residual's output
// activation bit for bit to the loops they replaced, at one worker and at
// several (the helper runs in ParallelFor blocks), for outputs and for
// gradients — including negative zero, which must rectify to +0, and the
// clipping point itself, which passes no gradient.
func TestRectifierMatchesBranchyLoops(t *testing.T) {
	rng := tensor.NewRNG(17)
	xs := rectifierInputs(rng)
	douts := make([]float32, len(xs))
	for i := range douts {
		douts[i] = float32(rng.Norm())
	}
	douts[0], douts[1] = float32(math.Copysign(0, -1)), float32(math.Inf(-1))
	for _, workers := range []int{1, 2, 3} {
		prev := tensor.SetMaxWorkers(workers)
		for _, r := range []*ReLU{NewReLU("relu"), NewReLU6("relu6")} {
			wantY, mask := reluBranchy(xs, r.cap)
			y, err := r.Forward(tensor.MustFromSlice(append([]float32(nil), xs...), len(xs)), true)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, r.Name()+" out", y.Data(), wantY)
			dx, err := r.Backward(tensor.MustFromSlice(append([]float32(nil), douts...), len(xs)))
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, r.Name()+" dx", dx.Data(), maskGradBranchy(douts, mask))
			if _, err := r.Backward(tensor.MustFromSlice(douts, len(xs))); err == nil {
				t.Fatalf("%s: second backward without a forward should error", r.Name())
			}
		}

		// Residual with an identity main branch and identity shortcut:
		// out = relu(2x), dx = 2·mask(dout).
		res := NewResidual("res", NewFlatten("id"), nil)
		x2 := tensor.MustFromSlice(append([]float32(nil), xs...), 1, len(xs))
		sum := make([]float32, len(xs))
		for i, v := range xs {
			sum[i] = v + v
		}
		mask := residualReLUBranchy(sum)
		y, err := res.Forward(x2, true)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "residual out", y.Data(), sum)
		dx, err := res.Backward(tensor.MustFromSlice(append([]float32(nil), douts...), 1, len(xs)))
		if err != nil {
			t.Fatal(err)
		}
		want := maskGradBranchy(douts, mask)
		for i := range want {
			want[i] += want[i]
		}
		sameBits(t, "residual dx", dx.Data(), want)
		if _, err := res.Backward(tensor.MustFromSlice(douts, 1, len(xs))); err == nil {
			t.Fatal("residual: second backward without a forward should error")
		}
		tensor.SetMaxWorkers(prev)
	}
	if _, err := NewReLU("cold").Backward(tensor.New(3)); err == nil {
		t.Fatal("relu: backward before forward should error")
	}
}
