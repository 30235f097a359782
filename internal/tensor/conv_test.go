package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestConvGeomOutHW(t *testing.T) {
	cases := []struct {
		g        ConvGeom
		oh, ow   int
		validErr bool
	}{
		{ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32, 32, false},
		{ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 2, Pad: 1}, 16, 16, false},
		{ConvGeom{InC: 1, InH: 5, InW: 5, KH: 5, KW: 5, Stride: 1, Pad: 0}, 1, 1, false},
		{ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0}, 0, 0, true},
		{ConvGeom{InC: 0, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1}, 0, 0, true},
		{ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 0}, 0, 0, true},
	}
	for _, tc := range cases {
		err := tc.g.Validate()
		if tc.validErr {
			if !errors.Is(err, ErrShape) {
				t.Errorf("%+v: Validate = %v, want ErrShape", tc.g, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%+v: Validate = %v", tc.g, err)
			continue
		}
		oh, ow := tc.g.OutHW()
		if oh != tc.oh || ow != tc.ow {
			t.Errorf("%+v: OutHW = (%d,%d), want (%d,%d)", tc.g, oh, ow, tc.oh, tc.ow)
		}
	}
}

// Property: the im2col+GEMM convolution matches the naive direct
// convolution for random geometries, including strides and padding.
func TestIm2ColGEMMMatchesDirectProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		g := ConvGeom{
			InC:    1 + rng.Intn(3),
			InH:    4 + rng.Intn(6),
			KH:     1 + rng.Intn(3),
			Stride: 1 + rng.Intn(2),
			Pad:    rng.Intn(2),
		}
		g.InW = g.InH
		g.KW = g.KH
		if g.Validate() != nil {
			return true // skip degenerate draws
		}
		outC := 1 + rng.Intn(4)
		img := New(g.InC, g.InH, g.InW)
		img.FillNormal(rng, 0, 1)
		w := New(outC, g.InC, g.KH, g.KW)
		w.FillNormal(rng, 0, 1)

		direct, err := ConvDirect(img, w, g)
		if err != nil {
			return false
		}
		cols, err := im2colBatch(img.MustReshape(1, g.InC, g.InH, g.InW), g)
		if err != nil {
			return false
		}
		w2d := w.MustReshape(outC, g.InC*g.KH*g.KW)
		prod, err := MatMul(w2d, cols)
		if err != nil {
			return false
		}
		oh, ow := g.OutHW()
		gemm := prod.MustReshape(outC, oh, ow)
		for i := range gemm.Data() {
			if math.Abs(float64(gemm.Data()[i]-direct.Data()[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Col2ImBatchInto is the adjoint of Im2ColBatchInto: for random
// x and y, <im2col(x), y> == <x, col2im(y)>. This is exactly the property
// the backward pass relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		g := ConvGeom{
			InC:    1 + rng.Intn(2),
			InH:    4 + rng.Intn(4),
			KH:     1 + rng.Intn(3),
			Stride: 1 + rng.Intn(2),
			Pad:    rng.Intn(2),
		}
		g.InW = g.InH
		g.KW = g.KH
		if g.Validate() != nil {
			return true
		}
		n := 1 + rng.Intn(2)
		x := New(n, g.InC, g.InH, g.InW)
		x.FillNormal(rng, 0, 1)
		cols, err := im2colBatch(x, g)
		if err != nil {
			return false
		}
		y := New(cols.Shape()...)
		y.FillNormal(rng, 0, 1)
		back := New(x.Shape()...)
		if err := Col2ImBatchInto(back, y, g); err != nil {
			return false
		}
		var lhs, rhs float64
		for i := range cols.Data() {
			lhs += float64(cols.Data()[i]) * float64(y.Data()[i])
		}
		for i := range x.Data() {
			rhs += float64(x.Data()[i]) * float64(back.Data()[i])
		}
		return math.Abs(lhs-rhs) <= 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColShapeValidation(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := New(1, 1, 8, 8) // wrong channel count
	if err := Im2ColBatchInto(New(27, 64), x, g); !errors.Is(err, ErrShape) {
		t.Errorf("Im2ColBatchInto channel mismatch err = %v, want ErrShape", err)
	}
	cols := New(5, 5) // wrong matrix shape
	if err := Col2ImBatchInto(New(1, 3, 8, 8), cols, g); !errors.Is(err, ErrShape) {
		t.Errorf("Col2ImBatchInto shape mismatch err = %v, want ErrShape", err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 64; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds look correlated")
	}
}

func TestRNGNormMoments(t *testing.T) {
	rng := NewRNG(7)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := rng.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	rng := NewRNG(3)
	p := rng.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestFillHeNormalScale(t *testing.T) {
	rng := NewRNG(12)
	tt := New(20000)
	tt.FillHeNormal(rng, 50)
	var sumSq float64
	for _, v := range tt.Data() {
		sumSq += float64(v) * float64(v)
	}
	std := math.Sqrt(sumSq / float64(tt.Len()))
	want := math.Sqrt(2.0 / 50.0)
	if math.Abs(std-want) > 0.01 {
		t.Errorf("He std = %v, want ~%v", std, want)
	}
}
