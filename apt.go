// Package repro is a from-scratch Go reproduction of "Adaptive Precision
// Training for Resource Constrained Devices" (Huang, Luo, Zhou — ICDCS
// 2020, arXiv:2012.12775).
//
// APT trains a DNN whose weights are stored quantized in both the forward
// and the backward pass — no fp32 master copy — and dynamically
// re-allocates per-layer bitwidth during training from the
// quantization-underflow metric Gavg = mean |g/ε| (Eq. 4 of the paper).
// Layers whose Gavg falls below Tmin are starving (their updates underflow
// the grid) and gain a bit; layers above Tmax shed one.
//
// This root package is the stable facade over the implementation
// packages:
//
//   - New/Trainer: assemble and run an APT training session;
//   - Models: the paper's backbones (ResNet-20/110, MobileNetV2) plus
//     baselines' backbones (CifarNet, VGG-small) and a fast SmallCNN;
//   - SynthDataset: the procedural CIFAR stand-in used when the real
//     archives are unavailable;
//   - the re-exported aliases give direct access to the layer framework
//     (nn), quantization math (quant), controller (core), cost model
//     (energy) and experiment harness (experiments).
//
// Quickstart:
//
//	train, test, _ := repro.SynthDataset(repro.SynthConfig{
//		Classes: 10, Train: 1024, Test: 256, Seed: 1,
//	})
//	model, _ := repro.ResNet20(repro.ModelConfig{Classes: 10, InputSize: 32})
//	sess, _ := repro.New(repro.Config{
//		Model: model, Train: train, Test: test,
//		Epochs: 30, BatchSize: 64, Tmin: 6,
//	})
//	hist, _ := sess.Run()
//	fmt.Println(hist.FinalAcc(), hist.NormalizedEnergy(), hist.NormalizedSize())
package repro

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Re-exported configuration and result types.
type (
	// ModelConfig selects a backbone instantiation.
	ModelConfig = models.Config
	// Model couples a network with its input geometry.
	Model = models.Model
	// SynthConfig configures the procedural dataset generator.
	SynthConfig = data.SynthConfig
	// Dataset is the supervised image-classification interface.
	Dataset = data.Dataset
	// History is the per-epoch record of a training run.
	History = train.History
	// APTConfig is the controller configuration (thresholds, interval...).
	APTConfig = core.Config
	// CalibrationPoint feeds the AutoTmin selector.
	CalibrationPoint = core.CalibrationPoint
)

// Backbone constructors re-exported from internal/models.
var (
	ResNet20    = models.ResNet20
	ResNet110   = models.ResNet110
	MobileNetV2 = models.MobileNetV2
	CifarNet    = models.CifarNet
	VGGSmall    = models.VGGSmall
	SmallCNN    = models.SmallCNN
	// SmallCNNQuantAct additionally quantizes activations with learnable,
	// APT-managed clipping points (§III-B's extension).
	SmallCNNQuantAct = models.SmallCNNQuantAct
)

// AutoTmin picks the knee-point Tmin from a calibration sweep (the
// paper's future-work extension).
var AutoTmin = core.AutoTmin

// SynthDataset generates the SynthCIFAR train/test splits.
func SynthDataset(cfg SynthConfig) (trainSet, testSet Dataset, err error) {
	return data.NewSynth(cfg)
}

// Augment wraps a training dataset with the paper's augmentation: pad by
// pad pixels, randomly crop back to size, and randomly flip horizontally.
func Augment(ds Dataset, pad, size int, seed uint64) (Dataset, error) {
	return data.NewAugmented(ds, pad, size, tensor.NewRNG(seed))
}

// SaveModel writes a model checkpoint to w with quantized parameters
// stored bit-packed (a 6-bit layer costs 6 bits per weight on the wire,
// the on-device storage story of the paper). LoadModel restores it into a
// same-architecture model; LoadModelAuto rebuilds the architecture the
// checkpoint header names (arch/width arguments override it).
var (
	SaveModel     = models.Save
	LoadModel     = models.Load
	LoadModelAuto = models.LoadAuto
)

// Config assembles a training session on the facade level.
type Config struct {
	Model *Model
	Train Dataset
	Test  Dataset

	Epochs    int
	BatchSize int

	// LR is the base learning rate (default 0.1); Milestones divide it by
	// 10 at the given epochs (paper: 100 and 150 of 200).
	LR         float64
	Milestones []int

	// Mode selects the precision regime. The zero value ModeAPT trains
	// with the adaptive controller; ModeFixed uses FixedBits throughout;
	// ModeFP32 disables quantization.
	Mode Mode
	// FixedBits is the bitwidth for ModeFixed (default 8).
	FixedBits int

	// Tmin/Tmax are the controller thresholds for ModeAPT (defaults 6.0
	// and +Inf, the paper's headline setting); InitBits is the starting
	// bitwidth (default 6).
	Tmin     float64
	Tmax     float64
	InitBits int

	// Seed drives every random choice (default 1).
	Seed uint64
	// Log receives one line per epoch when non-nil.
	Log io.Writer
}

// Mode is the precision regime of a session.
type Mode int

// Session precision modes.
const (
	// ModeAPT trains with the adaptive precision controller.
	ModeAPT Mode = iota
	// ModeFixed trains with a static bitwidth in FPROP and BPROP.
	ModeFixed
	// ModeFP32 trains in full precision.
	ModeFP32
)

// Session is a configured training run.
type Session struct {
	cfg  Config
	ctrl *core.Controller
}

// New validates the configuration and prepares a session, initializing
// the model's parameters for the selected mode.
func New(cfg Config) (*Session, error) {
	if cfg.Model == nil || cfg.Train == nil || cfg.Test == nil {
		return nil, fmt.Errorf("repro: Model, Train and Test are required")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LR == 0 {
		cfg.LR = 0.1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Milestones) == 0 {
		cfg.Milestones = []int{cfg.Epochs * 2 / 3, cfg.Epochs * 13 / 15}
	}
	s := &Session{cfg: cfg}
	switch cfg.Mode {
	case ModeAPT:
		c := core.DefaultConfig()
		if cfg.Tmin != 0 {
			c.Tmin = cfg.Tmin
		}
		if cfg.Tmax != 0 {
			c.Tmax = cfg.Tmax
		} else {
			c.Tmax = math.Inf(1)
		}
		if cfg.InitBits != 0 {
			c.InitBits = cfg.InitBits
		}
		c.Interval = core.ProfileInterval(cfg.Train.Len(), cfg.BatchSize)
		ctrl, err := core.NewController(c, cfg.Model.Params())
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		s.ctrl = ctrl
	case ModeFixed:
		bits := cfg.FixedBits
		if bits == 0 {
			bits = 8
		}
		for _, p := range cfg.Model.Params() {
			if err := p.SetBits(bits); err != nil {
				return nil, fmt.Errorf("repro: %w", err)
			}
		}
	case ModeFP32:
		for _, p := range cfg.Model.Params() {
			p.Q = nil
			p.Master = nil
		}
	default:
		return nil, fmt.Errorf("repro: unknown mode %d", cfg.Mode)
	}
	return s, nil
}

// Controller exposes the APT controller of a ModeAPT session (nil
// otherwise) for trace inspection.
func (s *Session) Controller() *core.Controller { return s.ctrl }

// Run trains to completion and returns the history.
func (s *Session) Run() (*History, error) {
	return train.Run(train.Config{
		Model: s.cfg.Model, Train: s.cfg.Train, Test: s.cfg.Test,
		BatchSize: s.cfg.BatchSize, Epochs: s.cfg.Epochs,
		Schedule: optim.StepSchedule{
			Base: s.cfg.LR, Milestones: s.cfg.Milestones, Factor: 0.1,
		},
		Momentum: 0.9, WeightDecay: 1e-4,
		APT:  s.ctrl,
		Seed: s.cfg.Seed, Log: s.cfg.Log,
	})
}
