package train

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Failure injection: poisoned gradients, degenerate weight tensors and
// bitwidth saturation must not wedge the controller or the optimizer.

func TestNaNGradHookDoesNotWedgeController(t *testing.T) {
	tr, te := smokeData(t, 4)
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Interval = 2
	ctrl, err := core.NewController(cfg, m.Params())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	poisoned := false
	hook := func(params []*nn.Param) error {
		if !poisoned {
			// Inject a NaN into one gradient element once, early.
			params[0].Grad.Data()[0] = float32(math.NaN())
			poisoned = true
		}
		return nil
	}
	// The run must complete; a single poisoned element must not panic,
	// deadlock or error out the loop.
	hist, err := Run(Config{
		Model: m, Train: tr, Test: te, BatchSize: 64, Epochs: 2,
		Schedule: optim.ConstSchedule(0.05), APT: ctrl,
		GradHook: hook, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Run with NaN injection: %v", err)
	}
	if len(hist.Epochs) != 2 {
		t.Fatalf("run truncated: %d epochs", len(hist.Epochs))
	}
}

func TestDegenerateConstantTensorBehavesAsFP32(t *testing.T) {
	// A constant tensor has zero range: eps = 0 and the quantized update
	// degenerates to plain SGD until a range develops. The controller
	// must not adjust it based on the full-precision sentinel.
	v := tensor.New(16) // all zeros: degenerate
	p := nn.NewParam("const", v)
	if err := p.SetBits(6); err != nil {
		t.Fatalf("SetBits: %v", err)
	}
	if p.Eps() != 0 {
		t.Fatalf("constant tensor eps = %v, want 0", p.Eps())
	}
	cfg := core.DefaultConfig()
	cfg.Interval = 1
	cfg.Tmin = 6
	ctrl, err := core.NewController(cfg, []*nn.Param{p})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	p.Grad.Fill(0.1)
	ctrl.ObserveBatch()
	if _, err := ctrl.AdjustEpoch(); err != nil {
		t.Fatalf("AdjustEpoch: %v", err)
	}
	if p.Bits() != cfg.InitBits {
		t.Errorf("degenerate tensor's bits changed to %d; sentinel Gavg must hold it", p.Bits())
	}
	// The fp32-degenerate update path still applies the step.
	sgd := optim.NewSGD(1, 0, 0)
	p.Grad.Fill(0.1)
	if err := sgd.Step([]*nn.Param{p}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if p.Value.Data()[0] == 0 {
		t.Error("degenerate tensor did not receive the fp32 bootstrap update")
	}
}

func TestBitwidthSaturationAtBounds(t *testing.T) {
	rng := tensor.NewRNG(3)
	v := tensor.New(32)
	v.FillNormal(rng, 0, 1)
	p := nn.NewParam("w", v)
	cfg := core.DefaultConfig()
	cfg.InitBits = quant.MaxBits - 1
	cfg.Tmin = 1e9 // permanently starving: must clamp at MaxBits
	cfg.Interval = 1
	ctrl, err := core.NewController(cfg, []*nn.Param{p})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	for epoch := 0; epoch < 5; epoch++ {
		p.Grad.Fill(1e-9)
		ctrl.ObserveBatch()
		if _, err := ctrl.AdjustEpoch(); err != nil {
			t.Fatalf("AdjustEpoch: %v", err)
		}
	}
	if p.Bits() != quant.MaxBits {
		t.Errorf("bits = %d, want saturated at %d", p.Bits(), quant.MaxBits)
	}
}

func TestExplodingGradientsDoNotPanic(t *testing.T) {
	tr, te := smokeData(t, 4)
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	hook := func(params []*nn.Param) error {
		for _, p := range params {
			p.Grad.Scale(1e6)
		}
		return nil
	}
	// An absurd LR with exploded gradients produces garbage accuracy but
	// must not crash the loop or the meter.
	hist, err := Run(Config{
		Model: m, Train: tr, Test: te, BatchSize: 64, Epochs: 1,
		Schedule: optim.ConstSchedule(10), GradHook: hook, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Run with exploding grads: %v", err)
	}
	if hist.Epochs[0].CumEnergy <= 0 {
		t.Error("meter stopped accumulating")
	}
}
