package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/train"
)

// Runner regenerates one paper artefact at a given scale.
type Runner func(s Scale, log io.Writer) (*Report, error)

// Registry maps experiment ids to runners.
var registry = map[string]Runner{
	"fig1":   Fig1,
	"fig2":   Fig2,
	"fig3":   Fig3,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"table1": Table1,
	// ablate and dist are extensions (not paper artefacts); they are
	// excluded from -all and run only when requested by id.
	"ablate": Ablate,
	"dist":   Dist,
}

// extensionIDs are registered runners that are not paper artefacts; -all
// skips them.
var extensionIDs = map[string]bool{"ablate": true, "dist": true}

// IDs returns the paper-artefact experiment ids in order (extensions such
// as "ablate" are addressable via ByID but excluded here so -all
// reproduces exactly the paper's evaluation).
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		if !extensionIDs[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// ByID resolves an experiment id.
func ByID(id string) (Runner, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r, nil
}

// runSpec is one training run within an experiment.
type runSpec struct {
	model    *models.Model
	train    data.Dataset
	test     data.Dataset
	apt      *core.Controller
	schedule optim.Schedule
	gradHook train.Hook
	postHook train.Hook
	seed     uint64
}

// execute runs a spec under a scale's common hyper-parameters (the
// paper's SGD with momentum 0.9 and weight decay 1e-4).
func (s Scale) execute(spec runSpec, log io.Writer) (*train.History, error) {
	sched := spec.schedule
	if sched == nil {
		sched = s.Schedule()
	}
	return train.Run(train.Config{
		Model: spec.model, Train: freshStream(spec.train), Test: spec.test,
		BatchSize: s.Batch, Epochs: s.Epochs,
		Schedule: sched, Momentum: 0.9, WeightDecay: 1e-4,
		APT:      spec.apt,
		GradHook: spec.gradHook, PostStepHook: spec.postHook,
		Seed: s.Seed ^ spec.seed, Log: log,
	})
}

// freshStream gives a run its own augmentation stream, started from the
// state the dataset was built with: every run of an artefact sees the
// same crops in the same order (common random numbers across variants),
// whatever ran before it.
func freshStream(d data.Dataset) data.Dataset {
	if a, ok := d.(*data.Augmented); ok {
		return a.Fresh()
	}
	return d
}

// aptController builds a controller with the paper's defaults overridden
// by tmin/tmax, profiling four times per epoch (core.ProfileInterval) at
// the profile's batch geometry.
func (s Scale) aptController(m *models.Model, tmin, tmax float64, initBits int) (*core.Controller, error) {
	cfg := core.DefaultConfig()
	cfg.Tmin = tmin
	if tmax != 0 {
		cfg.Tmax = tmax
	}
	if initBits != 0 {
		cfg.InitBits = initBits
	}
	cfg.Interval = core.ProfileInterval(s.TrainN, s.Batch)
	return core.NewController(cfg, m.Params())
}

// accSeries extracts the per-epoch test accuracies from a history.
func accSeries(h *train.History) []float64 {
	out := make([]float64, len(h.Epochs))
	for i, e := range h.Epochs {
		out[i] = e.TestAcc
	}
	return out
}

// gavgSeries extracts the per-epoch mean Gavg from a history.
func gavgSeries(h *train.History) []float64 {
	out := make([]float64, len(h.Epochs))
	for i, e := range h.Epochs {
		out[i] = e.MeanGavg
	}
	return out
}
