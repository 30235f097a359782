package train

import (
	"math"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
)

func TestRunValidation(t *testing.T) {
	tr, te := smokeData(t, 4)
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	if _, err := Run(Config{Train: tr, Test: te, BatchSize: 8, Epochs: 1}); err == nil {
		t.Error("missing model did not error")
	}
	if _, err := Run(Config{Model: m, Train: tr, Test: te, BatchSize: 0, Epochs: 1}); err == nil {
		t.Error("zero batch size did not error")
	}
	if _, err := Run(Config{Model: m, Train: tr, Test: te, BatchSize: 8, Epochs: 0}); err == nil {
		t.Error("zero epochs did not error")
	}
}

func TestHistoryAccessors(t *testing.T) {
	h := &History{
		Epochs: []EpochStats{
			{Epoch: 0, TestAcc: 0.5, CumEnergy: 10, SizeBits: 100},
			{Epoch: 1, TestAcc: 0.8, CumEnergy: 20, SizeBits: 150},
			{Epoch: 2, TestAcc: 0.7, CumEnergy: 30, SizeBits: 120},
		},
		FP32Energy:   60,
		FP32SizeBits: 200,
	}
	if got := h.FinalAcc(); got != 0.7 {
		t.Errorf("FinalAcc = %v", got)
	}
	if got := h.BestAcc(); got != 0.8 {
		t.Errorf("BestAcc = %v", got)
	}
	if got := h.NormalizedEnergy(); got != 0.5 {
		t.Errorf("NormalizedEnergy = %v", got)
	}
	if got := h.NormalizedSize(); got != 0.75 { // peak 150/200
		t.Errorf("NormalizedSize = %v", got)
	}
	cum, epoch, reached := h.EnergyAtEpochTo(0.75)
	if !reached || epoch != 1 || cum != 20 {
		t.Errorf("EnergyAtEpochTo(0.75) = (%v, %v, %v)", cum, epoch, reached)
	}
	if _, _, reached := h.EnergyAtEpochTo(0.95); reached {
		t.Error("unreachable target reported reached")
	}
	empty := &History{}
	if empty.FinalAcc() != 0 || empty.BestAcc() != 0 || empty.NormalizedEnergy() != 0 {
		t.Error("empty history accessors not zero")
	}
}

func TestRunRecordsFullHistory(t *testing.T) {
	tr, te := smokeData(t, 4)
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	if _, err := baselines.FixedBits(m.Params(), 8); err != nil {
		t.Fatalf("FixedBits: %v", err)
	}
	var log strings.Builder
	hist, err := Run(Config{
		Model: m, Train: tr, Test: te, BatchSize: 32, Epochs: 3,
		Schedule: optim.StepSchedule{Base: 0.1, Milestones: []int{2}, Factor: 0.1},
		Momentum: 0.9, WeightDecay: 1e-4, Seed: 3, Log: &log,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(hist.Epochs) != 3 {
		t.Fatalf("epochs recorded = %d", len(hist.Epochs))
	}
	for i, e := range hist.Epochs {
		if e.Epoch != i {
			t.Errorf("epoch %d numbered %d", i, e.Epoch)
		}
		if e.CumEnergy <= 0 || e.SizeBits <= 0 {
			t.Errorf("epoch %d has non-positive energy/size: %+v", i, e)
		}
		if i > 0 && e.CumEnergy <= hist.Epochs[i-1].CumEnergy {
			t.Error("cumulative energy not increasing")
		}
		if math.Abs(e.MeanBits-8) > 1e-9 {
			t.Errorf("fixed 8-bit run reports mean bits %v", e.MeanBits)
		}
	}
	// LR schedule applied: epoch 2 trains at 0.01.
	if math.Abs(hist.Epochs[2].LR-0.01) > 1e-12 {
		t.Errorf("epoch 2 LR = %v, want 0.01", hist.Epochs[2].LR)
	}
	if !strings.Contains(log.String(), "epoch   0") && !strings.Contains(log.String(), "epoch 0") {
		t.Errorf("log writer received nothing useful: %q", log.String())
	}
	// Passive Gavg profiling for fixed runs is recorded.
	if hist.Epochs[2].MeanGavg <= 0 {
		t.Error("fixed-bit run recorded no Gavg profile")
	}
}

func TestAPTRunTracksBitGrowth(t *testing.T) {
	tr, te := smokeData(t, 4)
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Tmin = 1e5 // force growth: every layer always starves
	cfg.Interval = 2
	ctrl, err := core.NewController(cfg, m.Params())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	hist, err := Run(Config{
		Model: m, Train: tr, Test: te, BatchSize: 32, Epochs: 3,
		Schedule: optim.ConstSchedule(0.05), Momentum: 0.9,
		APT: ctrl, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With forced growth the mean bits must increase by ~1 per epoch.
	if hist.Epochs[2].MeanBits <= hist.Epochs[0].MeanBits {
		t.Errorf("mean bits did not grow: %v -> %v",
			hist.Epochs[0].MeanBits, hist.Epochs[2].MeanBits)
	}
	// Model size must track bit growth.
	if hist.Epochs[2].SizeBits <= hist.Epochs[0].SizeBits {
		t.Error("model size did not grow with bits")
	}
}

func TestGradHookAndPostStepHookCalled(t *testing.T) {
	tr, te := smokeData(t, 4)
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	gradCalls, postCalls := 0, 0
	_, err = Run(Config{
		Model: m, Train: tr, Test: te, BatchSize: 100, Epochs: 1,
		Schedule: optim.ConstSchedule(0.01), Seed: 3,
		GradHook:     func([]*nn.Param) error { gradCalls++; return nil },
		PostStepHook: func([]*nn.Param) error { postCalls++; return nil },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	batches := (400 + 99) / 100
	if gradCalls != batches || postCalls != batches {
		t.Errorf("hooks called (%d, %d) times, want %d", gradCalls, postCalls, batches)
	}
}

func TestEvaluateEmptyAndErrors(t *testing.T) {
	tr, te := smokeData(t, 4)
	_ = tr
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	acc, err := Evaluate(m, te, 64)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy %v outside [0,1]", acc)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		tr, te, err := data.NewSynth(data.SynthConfig{
			Classes: 3, Train: 120, Test: 60, Size: 12, Seed: 4, Noise: 0.3,
		})
		if err != nil {
			t.Fatalf("NewSynth: %v", err)
		}
		m, err := models.SmallCNN(models.Config{Classes: 3, InputSize: 12, Seed: 2})
		if err != nil {
			t.Fatalf("SmallCNN: %v", err)
		}
		hist, err := Run(Config{
			Model: m, Train: tr, Test: te, BatchSize: 32, Epochs: 2,
			Schedule: optim.ConstSchedule(0.05), Momentum: 0.9, Seed: 8,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		out := make([]float64, len(hist.Epochs))
		for i, e := range hist.Epochs {
			out[i] = e.TestAcc*1000 + e.TrainLoss
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at epoch %d: %v vs %v", i, a[i], b[i])
		}
	}
}
