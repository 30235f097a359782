package infer

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// Every channel's weights must land on symmetric int8 within half a step of
// that channel's scale.
func TestQuantizeWeightsSymProperties(t *testing.T) {
	rng := tensor.NewRNG(1)
	const outC, per = 4, 64
	w := tensor.New(outC, per)
	w.FillNormal(rng, 0, 0.5)
	q, scales := quantizeWeightsPerChannel(w)
	for i, v := range q {
		scale := scales[i/per]
		if scale <= 0 {
			t.Fatalf("channel %d scale = %v", i/per, scale)
		}
		if v < -127 || v > 127 {
			t.Fatalf("q[%d] = %d outside int8 symmetric range", i, v)
		}
		recon := float64(scale) * float64(v)
		if math.Abs(recon-float64(w.Data()[i])) > float64(scale)/2+1e-6 {
			t.Fatalf("weight %d reconstruction error exceeds scale/2", i)
		}
	}
}

func TestQuantizeWeightsSymDegenerate(t *testing.T) {
	w := tensor.New(2, 4) // all zero
	q, scales := quantizeWeightsPerChannel(w)
	for c, s := range scales {
		if s <= 0 {
			t.Fatalf("degenerate channel %d scale = %v", c, s)
		}
	}
	for _, v := range q {
		if v != 0 {
			t.Fatal("zero weights did not quantize to zero")
		}
	}
}

// Per-channel scales must reconstruct a tensor with heterogeneous channel
// magnitudes strictly tighter than the single per-tensor scale: the small
// channels get their own fine grid instead of the widest channel's.
func TestQuantizeWeightsPerChannelTighter(t *testing.T) {
	rng := tensor.NewRNG(3)
	const outC, per = 8, 32
	w := tensor.New(outC, per)
	w.FillNormal(rng, 0, 1)
	wd := w.Data()
	for c := 0; c < outC; c++ {
		// Channel magnitudes spanning two orders of magnitude.
		mag := float32(math.Pow(10, float64(c)/3.5-1))
		for j := 0; j < per; j++ {
			wd[c*per+j] *= mag
		}
	}
	// The per-tensor baseline: one symmetric scale for the widest channel.
	var absMax float32
	for _, v := range wd {
		absMax = max(absMax, float32(math.Abs(float64(v))))
	}
	st := symScale(absMax)
	qt := make([]int8, len(wd))
	quantizeRow(qt, wd, st)
	qc, sc := quantizeWeightsPerChannel(w)
	if len(sc) != outC {
		t.Fatalf("per-channel scales = %d, want %d", len(sc), outC)
	}
	errAt := func(q []int8, scale float32, i int) float64 {
		return math.Abs(float64(scale)*float64(q[i]) - float64(wd[i]))
	}
	var sumT, sumC float64
	for c := 0; c < outC; c++ {
		for j := 0; j < per; j++ {
			i := c*per + j
			sumT += errAt(qt, st, i)
			sumC += errAt(qc, sc[c], i)
		}
	}
	if sumC >= sumT/2 {
		t.Errorf("per-channel reconstruction error %v not well below per-tensor %v", sumC, sumT)
	}
}

// A range observed entirely below zero must still produce a grid whose
// zero point fits in uint8 and encodes float 0 exactly (it becomes the
// im2col padding byte).
func TestGridForNegativeOnlyRange(t *testing.T) {
	for _, r := range [][2]float32{{-1.0, -0.1}, {-3, -2.5}, {0.2, 0.9}, {-0.5, 0.5}} {
		g := gridFor(r[0], r[1])
		if g.zero < 0 || g.zero > 255 {
			t.Errorf("gridFor(%v) zero point %d outside uint8", r, g.zero)
		}
		if q := tensor.QuantizeU8(0, g.scale, g.zero); int32(q) != g.zero {
			t.Errorf("gridFor(%v): quantize(0) = %d, want zero point %d", r, q, g.zero)
		}
	}
}

// Property: a lowered linear stage matches the float affine map within
// the combined quantization error budget for random small problems.
func TestIntegerLinearMatchesFloatProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(3)
		inF := 2 + rng.Intn(8)
		outF := 1 + rng.Intn(4)
		w := tensor.New(outF, inF)
		w.FillNormal(rng, 0, 0.5)
		x := tensor.New(n, inF)
		x.FillNormal(rng, 0, 1)
		bias := make([]float32, outF)
		for i := range bias {
			bias[i] = float32(rng.Norm()) * 0.1
		}
		// Float reference.
		want := tensor.New(n, outF)
		if err := tensor.MatMulTransBInto(want, x, w); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for o := 0; o < outF; o++ {
				want.Set(want.At(i, o)+bias[o], i, o)
			}
		}
		xmin, xmax := x.MinMax()
		in := gridFor(xmin, xmax)
		outG := gridFor(want.MinMax())
		ql, err := lowerAffine("lin", w, bias, nil, false, in, outG, 0)
		if err != nil {
			return false
		}
		s := newScratch(1)
		qx := &qtensor{}
		quantizeInto(qx, x, in)
		out, err := ql.forward(qx, s)
		if err != nil {
			return false
		}
		back := out.dequantize()
		// Error budget: input quantum propagated through the weights plus
		// output quanta.
		inBudget := float64(in.scale) * float64(inF) * 0.6
		outBudget := float64(outG.scale)
		for i := range back.Data() {
			if math.Abs(float64(back.Data()[i]-want.Data()[i])) > inBudget+2*outBudget+1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
