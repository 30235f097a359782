// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figures 1–5 and Table I) on the SynthCIFAR
// workloads, at three scales: Micro (seconds; unit tests and testing.B
// benchmarks), CI (minutes on one CPU; the default for cmd/aptbench) and
// Paper (the full 200-epoch geometry for machines with time to spare).
// Each runner returns a Report whose rows mirror the paper's artefact and
// whose raw series feed the shape-check tests.
package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Scale is an experiment size profile.
type Scale struct {
	Name      string
	TrainN    int
	TestN     int
	InputSize int
	Width     float64 // backbone width multiplier
	Epochs    int
	Batch     int
	Noise     float64
	Seed      uint64
	LR        float64
	// Milestones are the step-schedule epochs (the paper's 100/150 scaled
	// to the epoch budget).
	Milestones []int
	// Pad is the augmentation padding (the paper's 4, scaled).
	Pad int
}

// Micro is the smallest profile: a few seconds per run. The precision
// ramp has little room in eight epochs, so Micro checks mechanics rather
// than end-accuracy shape.
func Micro() Scale {
	return Scale{
		Name: "micro", TrainN: 256, TestN: 128, InputSize: 12, Width: 0.25,
		Epochs: 8, Batch: 32, Noise: 0.5, Seed: 11, LR: 0.1,
		Milestones: []int{5, 7}, Pad: 1,
	}
}

// CI is the default profile: a minute or two per run on one CPU. The
// milestones sit late (2/3 and 13/15 of the budget) so APT's precision
// ramp — ~6 epochs from the 6-bit start — still leaves most of the
// high-LR phase at usable precision, preserving the paper's ratio of
// ramp to schedule.
func CI() Scale {
	return Scale{
		Name: "ci", TrainN: 1024, TestN: 384, InputSize: 16, Width: 0.25,
		Epochs: 30, Batch: 64, Noise: 0.8, Seed: 11, LR: 0.1,
		Milestones: []int{20, 26}, Pad: 2,
	}
}

// Paper is the full geometry of §IV: 32×32 inputs, full-width backbones,
// 200 epochs, LR decay at 100/150 and pad-4 crop augmentation.
func Paper() Scale {
	return Scale{
		Name: "paper", TrainN: 50000, TestN: 10000, InputSize: 32, Width: 1.0,
		Epochs: 200, Batch: 128, Noise: 0.8, Seed: 11, LR: 0.1,
		Milestones: []int{100, 150}, Pad: 4,
	}
}

// ScaleByName resolves a profile name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "micro":
		return Micro(), nil
	case "ci", "":
		return CI(), nil
	case "paper":
		return Paper(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (want micro, ci or paper)", name)
	}
}

// Dataset builds the SynthCIFAR task with the given class count, wrapping
// the training split in the paper's pad/crop/flip augmentation.
func (s Scale) Dataset(classes int, seedOffset uint64) (train, test data.Dataset, err error) {
	tr, te, err := data.NewSynth(data.SynthConfig{
		Classes: classes, Train: s.TrainN, Test: s.TestN,
		Size: s.InputSize, Seed: s.Seed + seedOffset, Noise: s.Noise,
	})
	if err != nil {
		return nil, nil, err
	}
	aug, err := data.NewAugmented(tr, s.Pad, s.InputSize, tensor.NewRNG(s.Seed^0x5EED+seedOffset))
	if err != nil {
		return nil, nil, err
	}
	return aug, te, nil
}

// ResNet20 builds the scaled ResNet-20.
func (s Scale) ResNet20(classes int) (*models.Model, error) {
	return models.ResNet20(models.Config{
		Classes: classes, InputSize: s.InputSize, Width: s.Width, Seed: s.Seed + 101,
	})
}

// ResNet110 builds the scaled ResNet-110.
func (s Scale) ResNet110(classes int) (*models.Model, error) {
	return models.ResNet110(models.Config{
		Classes: classes, InputSize: s.InputSize, Width: s.Width, Seed: s.Seed + 103,
	})
}

// MobileNetV2 builds the scaled MobileNetV2.
func (s Scale) MobileNetV2(classes int) (*models.Model, error) {
	return models.MobileNetV2(models.Config{
		Classes: classes, InputSize: s.InputSize, Width: s.Width, Seed: s.Seed + 107,
	})
}

// Schedule returns the paper's step schedule scaled to the profile.
func (s Scale) Schedule() optim.Schedule {
	return optim.StepSchedule{Base: s.LR, Milestones: s.Milestones, Factor: 0.1}
}

// ScheduleWarmup returns the paper's CIFAR-100 warm-up schedule (§IV):
// LR 0.01 for the first two epochs, then the step schedule.
func (s Scale) ScheduleWarmup() optim.Schedule {
	warm := 2
	if s.Epochs < 10 {
		warm = 1
	}
	return optim.WarmupSchedule{Warm: 0.01, WarmEpochs: warm, Inner: s.Schedule()}
}
