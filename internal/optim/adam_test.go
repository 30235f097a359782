package optim

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, Adam's first step is ~lr in the gradient
	// direction regardless of gradient magnitude.
	for _, g := range []float32{0.001, 1, 1000} {
		p := singleParam([]float32{0})
		p.Grad.Data()[0] = g
		adam := NewAdam(0.1, 0, 0, 0)
		if err := adam.Step([]*nn.Param{p}); err != nil {
			t.Fatalf("Step: %v", err)
		}
		got := float64(p.Value.Data()[0])
		if math.Abs(got+0.1) > 0.01 {
			t.Errorf("grad %v: first step moved %v, want ~-0.1", g, got)
		}
	}
}

func TestAdamDirectionFollowsGradientSign(t *testing.T) {
	p := singleParam([]float32{0, 0})
	p.Grad.Data()[0] = 5
	p.Grad.Data()[1] = -5
	adam := NewAdam(0.01, 0, 0, 0)
	if err := adam.Step([]*nn.Param{p}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if p.Value.Data()[0] >= 0 || p.Value.Data()[1] <= 0 {
		t.Errorf("step direction wrong: %v", p.Value.Data())
	}
}

func TestAdamZerosGradients(t *testing.T) {
	p := singleParam([]float32{1})
	p.Grad.Data()[0] = 1
	adam := NewAdam(0.01, 0, 0, 0)
	if err := adam.Step([]*nn.Param{p}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if p.Grad.Data()[0] != 0 {
		t.Error("gradient not cleared")
	}
}

func TestAdamQuantizedPathUnderflows(t *testing.T) {
	rng := tensor.NewRNG(1)
	v := tensor.New(32)
	v.FillNormal(rng, 0, 1)
	p := nn.NewParam("w", v)
	if err := p.SetBits(3); err != nil {
		t.Fatalf("SetBits: %v", err)
	}
	before := p.Value.Clone()
	p.Grad.Fill(1) // Adam step ~ lr; with tiny lr the step underflows eps
	adam := NewAdam(1e-6, 0, 0, 0)
	if err := adam.Step([]*nn.Param{p}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	for i := range before.Data() {
		if p.Value.Data()[i] != before.Data()[i] {
			t.Fatal("underflowing Adam step moved a 3-bit weight")
		}
	}
	if p.Underflowed == 0 {
		t.Error("underflow not recorded")
	}
}

func TestAdamMasterPathAccumulates(t *testing.T) {
	rng := tensor.NewRNG(2)
	v := tensor.New(32)
	v.FillNormal(rng, 0, 1)
	p := nn.NewParam("w", v)
	p.EnableMaster()
	if err := p.SetBits(2); err != nil {
		t.Fatalf("SetBits: %v", err)
	}
	masterBefore := p.Master.Clone()
	p.Grad.Fill(0.01)
	adam := NewAdam(0.001, 0, 0, 0)
	if err := adam.Step([]*nn.Param{p}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	moved := false
	for i := range masterBefore.Data() {
		if p.Master.Data()[i] != masterBefore.Data()[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("master did not accumulate Adam step")
	}
}

func TestAdamImplementsOptimizer(t *testing.T) {
	var _ Optimizer = NewAdam(0.1, 0, 0, 0)
	var _ Optimizer = NewSGD(0.1, 0.9, 0)
	a := NewAdam(0.1, 0, 0, 0)
	a.SetLR(0.5)
	if a.lr != 0.5 {
		t.Errorf("lr = %v after SetLR(0.5)", a.lr)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)^2 — Adam should reach the optimum quickly.
	p := singleParam([]float32{0})
	adam := NewAdam(0.1, 0, 0, 0)
	for i := 0; i < 300; i++ {
		w := p.Value.Data()[0]
		p.Grad.Data()[0] = 2 * (w - 3)
		if err := adam.Step([]*nn.Param{p}); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if math.Abs(float64(p.Value.Data()[0])-3) > 0.05 {
		t.Errorf("Adam converged to %v, want 3", p.Value.Data()[0])
	}
}
