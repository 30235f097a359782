package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
)

// Ablate is an extension beyond the paper's artefacts: a grid over APT's
// design choices (core.Config's knobs) — policy step size, EMA decay, metric
// variant and profiling interval — each trained on the shared workload
// and reported with final accuracy, energy and memory. It quantifies how
// sensitive the headline result is to the pieces Algorithm 1 and 2 fix by
// fiat.
func Ablate(s Scale, log io.Writer) (*Report, error) {
	tr, te, err := s.Dataset(10, 2)
	if err != nil {
		return nil, err
	}
	type variant struct {
		label  string
		mutate func(*core.Config)
	}
	variants := []variant{
		{"baseline (paper)", func(*core.Config) {}},
		{"step=2", func(c *core.Config) { c.Step = 2 }},
		{"ema=0.9 (fast)", func(c *core.Config) { c.EMADecay = 0.9 }},
		{"ema=0.1 (slow)", func(c *core.Config) { c.EMADecay = 0.1 }},
		{"metric=underflow-fraction", func(c *core.Config) { c.Metric = core.MetricUnderflowFraction }},
		{"interval=1 (every iter)", func(c *core.Config) { c.Interval = 1 }},
		{"init=4-bit", func(c *core.Config) { c.InitBits = 4 }},
		{"init=8-bit", func(c *core.Config) { c.InitBits = 8 }},
	}
	rep := NewReport("ablate", "APT design-choice ablations (extension, not a paper artefact)",
		"variant", "best accuracy", "normalized energy", "normalized memory", "mean bits")
	var accs []float64
	for _, v := range variants {
		m, err := s.ResNet20(10)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Tmin = 6.0
		cfg.Tmax = math.Inf(1)
		cfg.Interval = core.ProfileInterval(s.TrainN, s.Batch)
		v.mutate(&cfg)
		ctrl, err := core.NewController(cfg, m.Params())
		if err != nil {
			return nil, err
		}
		if log != nil {
			fmt.Fprintf(log, "-- ablate: %s --\n", v.label)
		}
		h, err := s.execute(runSpec{model: m, train: tr, test: te, apt: ctrl, seed: 0xAB1A7E}, log)
		if err != nil {
			return nil, fmt.Errorf("ablate %s: %w", v.label, err)
		}
		accs = append(accs, h.BestAcc())
		rep.AddRow(v.label, fmtPct(h.BestAcc()), fmtNorm(h.NormalizedEnergy()),
			fmtNorm(h.NormalizedSize()), fmt.Sprintf("%.2f", ctrl.MeanBits()))
	}
	rep.SetSeries("accuracy", accs)
	rep.AddNote("§IV-A claims the initial bitwidth barely matters (\"an initial bitwidth other than 6 leads to similar results\") — compare the init=4/init=8 rows against the baseline.")
	return rep, nil
}
