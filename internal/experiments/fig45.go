package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/baselines"
	"repro/internal/train"
)

// Fig4 reproduces Figure 4: normalized training energy to reach each of a
// ladder of target accuracies, for fixed 12/14/16/32-bit training and APT
// (Tmin = 6.0, init 6-bit). As in the paper, energies are normalized to
// the 32-bit run's full-training cost; low-bitwidth fixed models miss the
// highest targets entirely (the paper's 12-bit column is absent at 91.75%
// and 92%).
func Fig4(s Scale, log io.Writer) (*Report, error) {
	tr, te, err := s.Dataset(10, 2)
	if err != nil {
		return nil, err
	}
	type variant struct {
		label string
		bits  int // 0 = fp32, -1 = APT
	}
	variants := []variant{
		{"12-bit", 12}, {"14-bit", 14}, {"16-bit", 16}, {"32-bit", 0}, {"APT", -1},
	}
	hists := make(map[string]*train.History, len(variants))
	var fp32Hist *train.History
	for _, v := range variants {
		m, err := s.ResNet20(10)
		if err != nil {
			return nil, err
		}
		spec := runSpec{model: m, train: tr, test: te, seed: 0xF16_4}
		switch {
		case v.bits == -1:
			ctrl, err := s.aptController(m, 6.0, math.Inf(1), 6)
			if err != nil {
				return nil, err
			}
			spec.apt = ctrl
		case v.bits > 0:
			if _, err := baselines.FixedBits(m.Params(), v.bits); err != nil {
				return nil, err
			}
		default:
			if _, err := baselines.FP32(m.Params()); err != nil {
				return nil, err
			}
		}
		if log != nil {
			fmt.Fprintf(log, "-- fig4: %s --\n", v.label)
		}
		h, err := s.execute(spec, log)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", v.label, err)
		}
		hists[v.label] = h
		if v.bits == 0 {
			fp32Hist = h
		}
	}

	// The paper's x-axis spans 91%–92% in 0.25% steps — the upper band of
	// what the workload can reach. We map that to four targets ending at
	// the best accuracy the fp32 run sustains, spaced like the paper's.
	best := fp32Hist.BestAcc()
	step := 0.01
	if s.Epochs <= 8 {
		step = 0.02 // micro runs are noisier; widen the ladder
	}
	targets := []float64{best - 3*step, best - 2*step, best - step, best}

	header := []string{"target accuracy"}
	for _, v := range variants {
		header = append(header, v.label)
	}
	rep := NewReport("fig4", "Normalized Training Energy v.s. Bitwidth for ResNet20 on SynthCIFAR10", header...)
	ref := fp32Hist.FP32Energy
	var aptEnergies, e12 []float64
	for _, t := range targets {
		row := []string{fmtPct(t)}
		for _, v := range variants {
			h := hists[v.label]
			cum, _, reached := h.EnergyAtEpochTo(t)
			if !reached {
				row = append(row, "—")
				if v.label == "APT" {
					aptEnergies = append(aptEnergies, math.NaN())
				}
				if v.label == "12-bit" {
					e12 = append(e12, math.NaN())
				}
				continue
			}
			norm := cum / ref
			row = append(row, fmtNorm(norm))
			if v.label == "APT" {
				aptEnergies = append(aptEnergies, norm)
			}
			if v.label == "12-bit" {
				e12 = append(e12, norm)
			}
		}
		rep.AddRow(row...)
	}
	rep.SetSeries("targets", targets)
	rep.SetSeries("apt", aptEnergies)
	rep.SetSeries("12bit", e12)
	for _, v := range variants {
		rep.SetSeries("acc/"+v.label, accSeries(hists[v.label]))
		final := hists[v.label].Epochs[len(hists[v.label].Epochs)-1].CumEnergy / ref
		rep.SetSeries("fullenergy/"+v.label, []float64{final})
	}
	rep.AddNote("energies normalized to the 32-bit run's full-training cost (paper Fig. 4); '—' = target not reached within the epoch budget.")
	return rep, nil
}

// Fig5 reproduces Figure 5: the (accuracy, normalized energy) and
// (accuracy, normalized training model size) scatter obtained by sweeping
// the Gavg threshold Tmin across 0.1–100 for full-length APT runs.
func Fig5(s Scale, log io.Writer) (*Report, error) {
	tr, te, err := s.Dataset(10, 2)
	if err != nil {
		return nil, err
	}
	tmins := []float64{0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0}
	if s.Epochs <= 8 {
		tmins = []float64{0.1, 1.0, 10.0, 100.0}
	}
	rep := NewReport("fig5", "Resource Consumption for Training v.s. Test Accuracy (Tmin sweep)",
		"Tmin", "test accuracy", "normalized energy", "normalized model size", "mean bits")
	var accs, energies, sizes, bits []float64
	for _, tmin := range tmins {
		m, err := s.ResNet20(10)
		if err != nil {
			return nil, err
		}
		ctrl, err := s.aptController(m, tmin, math.Inf(1), 6)
		if err != nil {
			return nil, err
		}
		if log != nil {
			fmt.Fprintf(log, "-- fig5: Tmin=%g --\n", tmin)
		}
		h, err := s.execute(runSpec{model: m, train: tr, test: te, apt: ctrl, seed: 0xF16_5}, log)
		if err != nil {
			return nil, fmt.Errorf("fig5 Tmin=%g: %w", tmin, err)
		}
		acc := h.BestAcc()
		ne := h.NormalizedEnergy()
		ns := h.NormalizedSize()
		accs = append(accs, acc)
		energies = append(energies, ne)
		sizes = append(sizes, ns)
		bits = append(bits, ctrl.MeanBits())
		for _, name := range ctrl.TracedParams() {
			rep.SetSeries(fmt.Sprintf("bits Tmin=%g %s", tmin, name), intsToFloats(ctrl.BitsTrace(name)))
		}
		rep.AddRow(fmt.Sprintf("%g", tmin), fmtPct(acc), fmtNorm(ne), fmtNorm(ns),
			fmt.Sprintf("%.2f", ctrl.MeanBits()))
	}
	rep.SetSeries("tmin", tmins)
	rep.SetSeries("accuracy", accs)
	rep.SetSeries("energy", energies)
	rep.SetSeries("size", sizes)
	rep.SetSeries("meanbits", bits)
	rep.AddNote("higher Tmin buys accuracy with energy/memory; the paper reports a plateau past Tmin≈1 where extra energy brings little improvement, and memory follows the energy trend.")
	return rep, nil
}
