// Package train runs the training loop of Algorithm 2: mini-batch SGD
// with per-INTERVAL Gavg profiling, per-epoch precision adjustment, test
// evaluation and full history recording (accuracy, loss, bitwidths, Gavg,
// energy and memory per epoch) for the experiment harness.
package train

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/energy"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Hook mutates parameters at a point in the training step; baselines use
// hooks to implement gradient quantization (TernGrad, DoReFa) and
// non-affine weight codes (binary, ternary).
type Hook func(params []*nn.Param) error

// Config assembles one training run.
type Config struct {
	Model     *models.Model
	Train     data.Dataset
	Test      data.Dataset
	BatchSize int
	Epochs    int

	// Optimizer settings (paper: SGD, momentum 0.9, weight decay 1e-4).
	Schedule    optim.Schedule
	Momentum    float64
	WeightDecay float64
	// Optimizer overrides the default SGD when non-nil (e.g. optim.Adam
	// for the comparison methods that originally trained with it).
	Optimizer optim.Optimizer

	// APT is the precision controller; nil trains at whatever precision
	// the parameters carry (fp32 or a fixed bitwidth set by the caller).
	APT *core.Controller

	// EnergyModel prices each iteration; the zero value is replaced by
	// energy.DefaultModel().
	EnergyModel energy.Model

	// GradHook runs after the backward pass, before profiling and the
	// optimizer step. PostStepHook runs after the optimizer step.
	GradHook     Hook
	PostStepHook Hook

	// GavgInterval controls the trainer's passive Gavg profiling for runs
	// without a controller (Figure 2's fixed-bitwidth investigations).
	// 0 defaults to 10.
	GavgInterval int

	// Seed drives batch shuffling and augmentation.
	Seed uint64

	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// EpochStats is one row of the training history.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	TestAcc   float64
	// CumEnergy is the accumulated training energy in cost-model units.
	CumEnergy float64
	// SizeBits is the training-time model size at the end of the epoch.
	SizeBits int64
	// MeanBits is the parameter-weighted mean bitwidth.
	MeanBits float64
	// MeanGavg is the mean smoothed Gavg across quantized parameters.
	MeanGavg float64
	// LR is the learning rate used this epoch.
	LR float64
	// UnderflowFrac is the mean fraction of weight elements whose updates
	// underflowed in the epoch's final step.
	UnderflowFrac float64
}

// History is the complete record of a run.
type History struct {
	Epochs []EpochStats
	// FP32Energy is what an fp32 run of identical geometry and sample
	// count would have spent, for normalization.
	FP32Energy float64
	// FP32SizeBits is the fp32 model size, for normalization.
	FP32SizeBits int64
	// Controller is the APT controller (nil for fixed runs), exposing
	// Gavg and bitwidth traces.
	Controller *core.Controller
}

// FinalAcc returns the last epoch's test accuracy (0 for an empty history).
func (h *History) FinalAcc() float64 {
	if len(h.Epochs) == 0 {
		return 0
	}
	return h.Epochs[len(h.Epochs)-1].TestAcc
}

// BestAcc returns the best test accuracy across epochs.
func (h *History) BestAcc() float64 {
	best := 0.0
	for _, e := range h.Epochs {
		if e.TestAcc > best {
			best = e.TestAcc
		}
	}
	return best
}

// NormalizedEnergy returns total energy relative to the fp32 reference.
func (h *History) NormalizedEnergy() float64 {
	if len(h.Epochs) == 0 || h.FP32Energy == 0 {
		return 0
	}
	return h.Epochs[len(h.Epochs)-1].CumEnergy / h.FP32Energy
}

// NormalizedSize returns the peak training model size relative to fp32.
func (h *History) NormalizedSize() float64 {
	if h.FP32SizeBits == 0 {
		return 0
	}
	var peak int64
	for _, e := range h.Epochs {
		if e.SizeBits > peak {
			peak = e.SizeBits
		}
	}
	return float64(peak) / float64(h.FP32SizeBits)
}

// EnergyAtEpochTo returns cumulative energy at the first epoch reaching
// target without normalization.
func (h *History) EnergyAtEpochTo(target float64) (cum float64, epoch int, reached bool) {
	for _, e := range h.Epochs {
		if e.TestAcc >= target {
			return e.CumEnergy, e.Epoch, true
		}
	}
	return 0, 0, false
}

// Run executes the training loop and returns the history.
func Run(cfg Config) (*History, error) {
	if cfg.Model == nil || cfg.Train == nil || cfg.Test == nil {
		return nil, fmt.Errorf("train: model and datasets are required")
	}
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: batch size %d and epochs %d must be positive", cfg.BatchSize, cfg.Epochs)
	}
	if cfg.Schedule == nil {
		cfg.Schedule = optim.ConstSchedule(0.1)
	}
	if cfg.GavgInterval <= 0 {
		cfg.GavgInterval = 10
	}
	em := cfg.EnergyModel
	if em == (energy.Model{}) {
		em = energy.DefaultModel()
	}

	rng := tensor.NewRNG(cfg.Seed ^ 0xA9F1)
	loader, err := data.NewLoader(cfg.Train, cfg.BatchSize, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	params := cfg.Model.Params()
	var opt optim.Optimizer = cfg.Optimizer
	if opt == nil {
		opt = optim.NewSGD(cfg.Schedule.LR(0), cfg.Momentum, cfg.WeightDecay)
	}
	meter := energy.NewMeter(em)
	loss := nn.SoftmaxCrossEntropy{}

	hist := &History{Controller: cfg.APT, FP32SizeBits: energy.FP32SizeBits(params)}
	totalSamples := int64(cfg.Epochs) * int64(cfg.Train.Len())
	hist.FP32Energy = em.FP32Reference(energy.Snapshot(cfg.Model.Layers()), totalSamples)

	passiveGavg := -1.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.Schedule.LR(epoch)
		opt.SetLR(lr)
		var (
			lossSum float64
			batches int
			ufFrac  float64
			iter    int
		)
		for {
			batch, labels, ok := loader.Next()
			if !ok {
				break
			}
			logits, err := cfg.Model.Net.Forward(batch, true)
			if err != nil {
				return nil, fmt.Errorf("train: epoch %d forward: %w", epoch, err)
			}
			l, dlogits, err := loss.Forward(logits, labels)
			if err != nil {
				return nil, fmt.Errorf("train: epoch %d loss: %w", epoch, err)
			}
			lossSum += l
			if _, err := cfg.Model.Net.Backward(dlogits); err != nil {
				return nil, fmt.Errorf("train: epoch %d backward: %w", epoch, err)
			}
			if cfg.GradHook != nil {
				if err := cfg.GradHook(params); err != nil {
					return nil, fmt.Errorf("train: epoch %d grad hook: %w", epoch, err)
				}
			}
			if cfg.APT != nil {
				cfg.APT.ObserveBatch()
			} else if iter%cfg.GavgInterval == 0 {
				g := meanGavg(params)
				if passiveGavg < 0 {
					passiveGavg = g
				} else {
					passiveGavg = 0.7*passiveGavg + 0.3*g
				}
			}
			if err := opt.Step(params); err != nil {
				return nil, fmt.Errorf("train: epoch %d step: %w", epoch, err)
			}
			if cfg.PostStepHook != nil {
				if err := cfg.PostStepHook(params); err != nil {
					return nil, fmt.Errorf("train: epoch %d post-step hook: %w", epoch, err)
				}
			}
			meter.Charge(energy.Snapshot(cfg.Model.Layers()), len(labels))
			batches++
			iter++
			ufFrac = underflowFraction(params)
		}
		if cfg.APT != nil {
			if _, err := cfg.APT.AdjustEpoch(); err != nil {
				return nil, fmt.Errorf("train: epoch %d adjust: %w", epoch, err)
			}
		}
		acc, err := Evaluate(cfg.Model, cfg.Test, cfg.BatchSize)
		if err != nil {
			return nil, fmt.Errorf("train: epoch %d eval: %w", epoch, err)
		}
		st := EpochStats{
			Epoch:         epoch,
			TrainLoss:     lossSum / float64(max(batches, 1)),
			TestAcc:       acc,
			CumEnergy:     meter.Total(),
			SizeBits:      energy.ModelSizeBits(params),
			MeanBits:      meanBits(params),
			LR:            lr,
			UnderflowFrac: ufFrac,
		}
		if cfg.APT != nil {
			st.MeanGavg = controllerMeanGavg(cfg.APT, params)
		} else if passiveGavg >= 0 {
			st.MeanGavg = passiveGavg
		}
		hist.Epochs = append(hist.Epochs, st)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %3d  lr %.4f  loss %.4f  acc %.4f  bits %.2f  Gavg %.3g  E %.3g\n",
				epoch, lr, st.TrainLoss, st.TestAcc, st.MeanBits, st.MeanGavg, st.CumEnergy)
		}
	}
	return hist, nil
}

// Evaluate computes test accuracy in evaluation mode (running BN stats,
// no augmentation randomness beyond the dataset's own Sample behaviour).
func Evaluate(m *models.Model, ds data.Dataset, batchSize int) (float64, error) {
	loader, err := data.NewLoader(ds, batchSize, nil)
	if err != nil {
		return 0, err
	}
	correct, total := 0, 0
	for {
		batch, labels, ok := loader.Next()
		if !ok {
			break
		}
		logits, err := m.Net.Forward(batch, false)
		if err != nil {
			return 0, err
		}
		for i := range labels {
			if logits.ArgMaxRow(i) == labels[i] {
				correct++
			}
		}
		total += len(labels)
	}
	if total == 0 {
		return 0, fmt.Errorf("train: empty test set")
	}
	return float64(correct) / float64(total), nil
}

func meanBits(params []*nn.Param) float64 {
	var bits, n float64
	for _, p := range params {
		w := float64(p.Value.Len())
		bits += w * float64(p.Bits())
		n += w
	}
	if n == 0 {
		return 0
	}
	return bits / n
}

// meanGavg averages the instantaneous Gavg across quantized parameters
// with a live grid. Degenerate tensors (ε = 0: constant-initialized BN
// scales and biases that have not yet developed a value range) behave as
// full precision and are excluded so their sentinel value cannot swamp
// the mean.
func meanGavg(params []*nn.Param) float64 {
	var sum float64
	var n int
	for _, p := range params {
		if p.Eps() == 0 {
			continue
		}
		g := p.Gavg()
		if g >= quant.GavgFullPrecision {
			continue
		}
		sum += g
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func controllerMeanGavg(c *core.Controller, params []*nn.Param) float64 {
	var sum float64
	var n int
	for _, p := range params {
		g := c.Gavg(p)
		if g <= 0 || g >= quant.GavgFullPrecision {
			continue
		}
		sum += g
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func underflowFraction(params []*nn.Param) float64 {
	var uf, n float64
	for _, p := range params {
		uf += float64(p.Underflowed)
		n += float64(p.Value.Len())
	}
	if n == 0 {
		return 0
	}
	return uf / n
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
