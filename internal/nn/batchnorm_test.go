package nn

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// bnOracle is the float64 reference of one batch-norm training step and of
// an evaluation pass on the updated running statistics.
type bnOracle struct {
	out, eval, dx   []float64
	runMean, runVar []float64
	dGamma, dBeta   []float64
}

func bnReference(x, dout []float32, n, c, plane int, gamma, beta []float32, eps, momentum float64) bnOracle {
	o := bnOracle{
		out: make([]float64, len(x)), eval: make([]float64, len(x)), dx: make([]float64, len(x)),
		runMean: make([]float64, c), runVar: make([]float64, c),
		dGamma: make([]float64, c), dBeta: make([]float64, c),
	}
	cnt := float64(n * plane)
	each := func(ch int, f func(i int)) {
		for s := 0; s < n; s++ {
			for j := 0; j < plane; j++ {
				f((s*c+ch)*plane + j)
			}
		}
	}
	for ch := 0; ch < c; ch++ {
		var mean, variance, sumDy, sumDyXhat float64
		each(ch, func(i int) { mean += float64(x[i]) })
		mean /= cnt
		each(ch, func(i int) { d := float64(x[i]) - mean; variance += d * d })
		variance /= cnt
		std := math.Sqrt(variance + eps)
		g, b := float64(gamma[ch]), float64(beta[ch])
		each(ch, func(i int) {
			xh := (float64(x[i]) - mean) / std
			o.out[i] = g*xh + b
			sumDy += float64(dout[i])
			sumDyXhat += float64(dout[i]) * xh
		})
		each(ch, func(i int) {
			xh := (float64(x[i]) - mean) / std
			o.dx[i] = g / (std * cnt) * (cnt*float64(dout[i]) - sumDy - xh*sumDyXhat)
		})
		o.dGamma[ch], o.dBeta[ch] = sumDyXhat, sumDy
		o.runMean[ch] = momentum * mean
		o.runVar[ch] = (1 - momentum) + momentum*variance
		rstd := math.Sqrt(o.runVar[ch] + eps)
		each(ch, func(i int) { o.eval[i] = g*(float64(x[i])-o.runMean[ch])/rstd + b })
	}
	return o
}

// within fails unless got matches want elementwise to tol relative to the
// largest magnitude in want (float32 rounding of a few operations).
func within[T float32 | float64](t *testing.T, what string, got []T, want []float64, tol float64) {
	t.Helper()
	scale := 1.0
	for _, w := range want {
		scale = max(scale, math.Abs(w))
	}
	for i, w := range want {
		if d := math.Abs(float64(got[i]) - w); !(d <= tol*scale) {
			t.Fatalf("%s[%d] = %v, float64 reference %v (|Δ| %.3g > %.3g)", what, i, got[i], w, d, tol*scale)
		}
	}
}

// TestBatchNormMatchesFloat64Oracle checks one training step (output,
// running statistics, input and parameter gradients) and one evaluation
// pass against a float64 reference, on off-centre inputs, for shapes that
// include a single channel, a single sample, 1×1 planes and planes that are
// not a multiple of the kernels' eight lanes.
func TestBatchNormMatchesFloat64Oracle(t *testing.T) {
	for _, s := range [][4]int{{4, 3, 5, 5}, {1, 2, 4, 4}, {6, 1, 3, 3}, {5, 4, 1, 1}, {3, 2, 16, 16}, {2, 5, 7, 3}} {
		n, c, h, w := s[0], s[1], s[2], s[3]
		rng := tensor.NewRNG(uint64(n*1000 + c*100 + h*10 + w))
		bn, err := NewBatchNorm2D("bn", c)
		if err != nil {
			t.Fatal(err)
		}
		bn.gamma.Value.FillNormal(rng, 1, 0.3)
		bn.beta.Value.FillNormal(rng, 0, 0.5)
		x := tensor.New(n, c, h, w)
		x.FillNormal(rng, 3, 2)
		dout := tensor.New(n, c, h, w)
		dout.FillNormal(rng, 0, 1)
		want := bnReference(x.Data(), dout.Data(), n, c, h*w, bn.gamma.Value.Data(), bn.beta.Value.Data(), bn.eps, bn.momentum)

		out, err := bn.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		within(t, "out", out.Data(), want.out, 1e-5)
		dx, err := bn.Backward(dout)
		if err != nil {
			t.Fatal(err)
		}
		within(t, "dx", dx.Data(), want.dx, 1e-4)
		within(t, "dγ", bn.gamma.Grad.Data(), want.dGamma, 1e-5)
		within(t, "dβ", bn.beta.Grad.Data(), want.dBeta, 1e-5)
		runMean, runVar := bn.RunningStats()
		within(t, "running mean", runMean, want.runMean, 1e-12)
		within(t, "running variance", runVar, want.runVar, 1e-12)
		eval, err := bn.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		within(t, "eval out", eval.Data(), want.eval, 1e-5)
		if _, err := bn.Backward(dout); err == nil {
			t.Fatalf("%v: Backward after an evaluation Forward did not error", s)
		}
	}
}

// TestBatchNormDeterministicAcrossWorkers demands byte-identical outputs,
// input gradients, parameter gradients and running statistics at 1, 2, 3
// and 8 workers: each channel's reductions run inside one kernel call.
func TestBatchNormDeterministicAcrossWorkers(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	rng := tensor.NewRNG(21)
	x := tensor.New(6, 16, 5, 5)
	x.FillNormal(rng, 1, 2)
	dout := tensor.New(6, 16, 5, 5)
	dout.FillNormal(rng, 0, 1)
	step := func(workers int) (floats [][]float32, stats []float64) {
		tensor.SetMaxWorkers(workers)
		bn, err := NewBatchNorm2D("bn", 16)
		if err != nil {
			t.Fatal(err)
		}
		out, err := bn.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		dx, err := bn.Backward(dout)
		if err != nil {
			t.Fatal(err)
		}
		mean, variance := bn.RunningStats()
		return [][]float32{out.Clone().Data(), dx.Clone().Data(), bn.gamma.Grad.Data(), bn.beta.Grad.Data()}, append(mean, variance...)
	}
	names := []string{"out", "dx", "dγ", "dβ"}
	want, wantStats := step(1)
	for _, workers := range []int{2, 3, 8} {
		got, stats := step(workers)
		for k := range got {
			for i := range got[k] {
				if math.Float32bits(got[k][i]) != math.Float32bits(want[k][i]) {
					t.Fatalf("workers=%d: %s[%d] differs from the serial run", workers, names[k], i)
				}
			}
		}
		for i := range stats {
			if math.Float64bits(stats[i]) != math.Float64bits(wantStats[i]) {
				t.Fatalf("workers=%d: running statistic %d differs from the serial run", workers, i)
			}
		}
	}
}

// TestBatchNormBackwardRejectsMismatchedDout is the regression test for a
// Backward that checked only dout's rank and channel count: a larger batch
// read past the retained input (an index panic, fatal inside a pool
// worker) and a smaller one silently read a prefix. Both must be ErrShape,
// and the forward cache must survive the rejection.
func TestBatchNormBackwardRejectsMismatchedDout(t *testing.T) {
	bn, err := NewBatchNorm2D("bn", 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 2, 3, 3)
	x.FillNormal(tensor.NewRNG(5), 0, 1)
	if _, err := bn.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][]int{{4, 2, 3, 3}, {1, 2, 3, 3}, {2, 2, 3, 4}, {2, 2, 9}} {
		if _, err := bn.Backward(tensor.New(shape...)); !errors.Is(err, tensor.ErrShape) {
			t.Errorf("dout %v: err = %v, want ErrShape", shape, err)
		}
	}
	if _, err := bn.Backward(tensor.New(2, 2, 3, 3)); err != nil {
		t.Fatalf("matching dout after rejected ones: %v", err)
	}
}

// TestBatchNormHoldsNoNormalizedCopy is the white-box pin of the layer's
// memory claim, the batch-norm twin of TestConvHoldsNoBatchPatchMatrix:
// after a training Forward the input is held by reference and the only
// other activation-sized buffer is the output arena; after Backward the
// input is released and the activation-sized buffers are exactly the
// output and input-gradient arenas — no stored x̂.
func TestBatchNormHoldsNoNormalizedCopy(t *testing.T) {
	rng := tensor.NewRNG(17)
	bn, err := NewBatchNorm2D("bn", 8)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(16, 8, 8, 8)
	x.FillNormal(rng, 0, 1)
	activationSized := func() map[string]bool {
		held := map[string]bool{}
		float32Slices(reflect.ValueOf(bn), "bn", map[uintptr]bool{}, func(path string, floats int) {
			if floats >= x.Len() {
				held[path] = true
			} else if floats > 8 {
				t.Errorf("%s holds %d floats: more than a per-channel vector", path, floats)
			}
		})
		return held
	}
	out, err := bn.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := activationSized(), map[string]bool{"bn.x.data": true, "bn.outA.buf": true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Forward the activation-sized buffers are %v, want %v (the input by reference, the output arena)", got, want)
	}
	if _, err := bn.Backward(out); err != nil {
		t.Fatal(err)
	}
	if got, want := activationSized(), map[string]bool{"bn.outA.buf": true, "bn.dxA.buf": true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Backward the activation-sized buffers are %v, want %v (two arenas)", got, want)
	}
}

// BenchmarkBatchNormStep times one training Forward + Backward at one
// worker on the benchmark nets' batch-norm shapes and reports ns per
// element.
func BenchmarkBatchNormStep(b *testing.B) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	for _, s := range [][4]int{{64, 4, 16, 16}, {64, 16, 4, 4}, {64, 32, 8, 8}} {
		b.Run(fmt.Sprintf("%dx%dx%dx%d", s[0], s[1], s[2], s[3]), func(b *testing.B) {
			rng := tensor.NewRNG(3)
			bn, err := NewBatchNorm2D("bn", s[1])
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(s[:]...)
			x.FillNormal(rng, 0.5, 2)
			dout := tensor.New(s[:]...)
			dout.FillNormal(rng, 0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bn.Forward(x, true); err != nil {
					b.Fatal(err)
				}
				if _, err := bn.Backward(dout); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Len()), "ns/elem")
		})
	}
}
