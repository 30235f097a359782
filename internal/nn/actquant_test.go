package nn

import (
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestActQuantForwardClipsAndSnaps(t *testing.T) {
	a, err := NewActQuant("aq", 6, 4)
	if err != nil {
		t.Fatalf("NewActQuant: %v", err)
	}
	x := tensor.MustFromSlice([]float32{-1, 0.5, 3, 7}, 4)
	out, err := a.Forward(x, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	d := out.Data()
	if d[0] != 0 {
		t.Errorf("negative input -> %v, want 0", d[0])
	}
	if d[3] != 6 {
		t.Errorf("above-clip input -> %v, want 6", d[3])
	}
	eps := quant.Epsilon(0, 6, 4)
	for _, v := range d[1:3] {
		steps := float64(v) / float64(eps)
		if math.Abs(steps-math.Round(steps)) > 1e-4 {
			t.Errorf("inside value %v not on the %v grid", v, eps)
		}
	}
}

func TestActQuantBackwardSTE(t *testing.T) {
	a, err := NewActQuant("aq", 2, 8)
	if err != nil {
		t.Fatalf("NewActQuant: %v", err)
	}
	x := tensor.MustFromSlice([]float32{-1, 1, 5}, 3)
	if _, err := a.Forward(x, true); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	dout := tensor.MustFromSlice([]float32{10, 20, 30}, 3)
	dx, err := a.Backward(dout)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	want := []float32{0, 20, 0} // below: blocked; inside: pass; above: to alpha
	for i, v := range dx.Data() {
		if v != want[i] {
			t.Errorf("dx[%d] = %v, want %v", i, v, want[i])
		}
	}
	if got := a.alpha.Grad.Data()[0]; got != 30 {
		t.Errorf("dAlpha = %v, want 30 (gradient of the clipped element)", got)
	}
}

func TestActQuantAlphaIsControllable(t *testing.T) {
	a, err := NewActQuant("aq", 6, 6)
	if err != nil {
		t.Fatalf("NewActQuant: %v", err)
	}
	ps := a.Params()
	if len(ps) != 1 || ps[0].Bits() != 6 {
		t.Fatalf("params = %v", ps)
	}
	if err := ps[0].SetBits(8); err != nil {
		t.Fatalf("SetBits: %v", err)
	}
	if a.Bits() != 8 {
		t.Errorf("Bits = %d after controller adjustment, want 8", a.Bits())
	}
}

func TestActQuantValidation(t *testing.T) {
	if _, err := NewActQuant("aq", 0, 8); err == nil {
		t.Error("zero clip did not error")
	}
	if _, err := NewActQuant("aq", 6, 1); err == nil {
		t.Error("1-bit did not error")
	}
	a, err := NewActQuant("aq", 6, 8)
	if err != nil {
		t.Fatalf("NewActQuant: %v", err)
	}
	if _, err := a.Backward(tensor.New(3)); err == nil {
		t.Error("backward before forward did not error")
	}
}

func TestActQuantGradCheckInside(t *testing.T) {
	// Inside the clip range with a coarse grid, the STE treats the
	// quantizer as identity: dL/dx should equal the cotangent.
	a, err := NewActQuant("aq", 10, quant.MaxBits) // effectively no grid
	if err != nil {
		t.Fatalf("NewActQuant: %v", err)
	}
	rng := tensor.NewRNG(3)
	x := tensor.New(16)
	for i := range x.Data() {
		x.Data()[i] = 0.5 + 9*float32(rng.Float64())
	}
	checkInputGrad(t, a, x, 1e-2)
}
