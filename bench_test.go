package repro

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/train"
)

// runWithController trains a model under an explicit APT controller with
// a scale profile's hyper-parameters (used by the ablation benches, which
// need direct access to core.Config knobs the facade does not expose).
func runWithController(m *models.Model, trainSet, testSet data.Dataset,
	ctrl *core.Controller, s experiments.Scale) (*train.History, error) {
	return train.Run(train.Config{
		Model: m, Train: trainSet, Test: testSet,
		BatchSize: s.Batch, Epochs: s.Epochs,
		Schedule: optim.StepSchedule{Base: s.LR, Milestones: s.Milestones, Factor: 0.1},
		Momentum: 0.9, WeightDecay: 1e-4,
		APT: ctrl, Seed: 9,
	})
}

// ---------------------------------------------------------------------------
// Paper artefacts: one benchmark per table and figure. Each runs the full
// experiment pipeline at the Micro scale (seconds per iteration) and
// reports the artefact's key quantities as custom metrics. The CI- and
// Paper-scale versions of the same artefacts are produced by
// cmd/aptbench (-scale ci|paper).
// ---------------------------------------------------------------------------

func benchArtifact(b *testing.B, id string) *experiments.Report {
	b.Helper()
	runner, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep, err = runner(experiments.Micro(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// BenchmarkFig1 regenerates Figure 1 (Gavg vs epoch for two layers).
func BenchmarkFig1(b *testing.B) {
	rep := benchArtifact(b, "fig1")
	ga := rep.Series["gavgA"]
	if len(ga) > 0 {
		b.ReportMetric(ga[0], "gavgA_first")
		b.ReportMetric(ga[len(ga)-1], "gavgA_last")
	}
}

// BenchmarkFig2 regenerates Figure 2 (accuracy vs epoch across precisions).
func BenchmarkFig2(b *testing.B) {
	rep := benchArtifact(b, "fig2")
	if acc := rep.Series["APT (init 6-bit)"]; len(acc) > 0 {
		b.ReportMetric(acc[len(acc)-1]*100, "apt_final_acc_%")
	}
	if acc := rep.Series["fp32"]; len(acc) > 0 {
		b.ReportMetric(acc[len(acc)-1]*100, "fp32_final_acc_%")
	}
}

// BenchmarkFig3 regenerates Figure 3 (layer-wise bitwidth vs epoch).
func BenchmarkFig3(b *testing.B) {
	rep := benchArtifact(b, "fig3")
	var maxBits float64
	for name, series := range rep.Series {
		_ = name
		for _, v := range series {
			if v > maxBits {
				maxBits = v
			}
		}
	}
	b.ReportMetric(maxBits, "max_layer_bits")
}

// BenchmarkFig4 regenerates Figure 4 (energy to reach target accuracy).
func BenchmarkFig4(b *testing.B) {
	rep := benchArtifact(b, "fig4")
	if e := rep.Series["fullenergy/APT"]; len(e) == 1 {
		b.ReportMetric(e[0], "apt_full_energy_vs_fp32")
	}
	if e := rep.Series["fullenergy/12-bit"]; len(e) == 1 {
		b.ReportMetric(e[0], "12bit_full_energy_vs_fp32")
	}
}

// BenchmarkFig5 regenerates Figure 5 (Tmin sweep scatter).
func BenchmarkFig5(b *testing.B) {
	rep := benchArtifact(b, "fig5")
	es := rep.Series["energy"]
	if len(es) > 1 {
		b.ReportMetric(es[0], "energy_lowest_tmin")
		b.ReportMetric(es[len(es)-1], "energy_highest_tmin")
	}
}

// BenchmarkTable1 regenerates Table I (method comparison).
func BenchmarkTable1(b *testing.B) {
	rep := benchArtifact(b, "table1")
	if m := rep.Series["mem/APT"]; len(m) == 1 {
		b.ReportMetric(m[0], "apt_mem_vs_fp32")
	}
	if m := rep.Series["mem/TWN"]; len(m) == 1 {
		b.ReportMetric(m[0], "twn_mem_vs_fp32")
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the controller's design choices (core.Config):
// policy step size, EMA decay, metric variant and profiling interval.
// Each trains the same micro workload with one knob changed and reports
// final accuracy and normalized energy so the ablation grid can be read
// straight off the bench output.
// ---------------------------------------------------------------------------

func ablationRun(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	s := experiments.Micro()
	for i := 0; i < b.N; i++ {
		trainSet, testSet, err := SynthDataset(SynthConfig{
			Classes: 4, Train: s.TrainN, Test: s.TestN, Size: s.InputSize,
			Seed: 5, Noise: s.Noise,
		})
		if err != nil {
			b.Fatal(err)
		}
		model, err := SmallCNN(ModelConfig{Classes: 4, InputSize: s.InputSize, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Tmin = 6
		cfg.Interval = 2
		mutate(&cfg)
		ctrl, err := core.NewController(cfg, model.Params())
		if err != nil {
			b.Fatal(err)
		}
		hist, err := runWithController(model, trainSet, testSet, ctrl, s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(hist.BestAcc()*100, "best_acc_%")
		b.ReportMetric(hist.NormalizedEnergy(), "energy_vs_fp32")
	}
}

func BenchmarkAblationPolicyStep1(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Step = 1 })
}

func BenchmarkAblationPolicyStep2(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Step = 2 })
}

func BenchmarkAblationEMAFast(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.EMADecay = 0.9 })
}

func BenchmarkAblationEMASlow(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.EMADecay = 0.1 })
}

func BenchmarkAblationMetricGavg(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Metric = core.MetricGavg })
}

func BenchmarkAblationMetricUnderflowFraction(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Metric = core.MetricUnderflowFraction })
}

func BenchmarkAblationInterval1(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Interval = 1 })
}

func BenchmarkAblationInterval8(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Interval = 8 })
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks. Kernel speed (GEMM, conv, int8 engine) is
// the repository benchmark's: go run -C bench . --trace 1 -out FILE.
// ---------------------------------------------------------------------------

func BenchmarkConvForward(b *testing.B) {
	m, err := models.ResNet20(models.Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	x := tensor.New(8, 3, 16, 16)
	x.FillNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Net.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantizeSnap(b *testing.B) {
	rng := tensor.NewRNG(3)
	v := tensor.New(64 * 1024)
	v.FillNormal(rng, 0, 1)
	st, err := quant.NewState(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Quantize(v)
	}
}

func BenchmarkGavg(b *testing.B) {
	rng := tensor.NewRNG(4)
	g := tensor.New(64 * 1024)
	g.FillNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = quant.Gavg(g, 0.01)
	}
}

func BenchmarkEnergySnapshot(b *testing.B) {
	m, err := models.ResNet20(models.Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = energy.Snapshot(m.Layers())
	}
}
