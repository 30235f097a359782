// Package baselines implements the training-method comparators of the
// paper's Table I and Figures 2/4 on top of the shared framework:
//
//   - fixed-bitwidth quantized SGD (the 8/12/14/16-bit bars of Figure 4),
//     quantized in both FPROP and BPROP exactly like APT but static;
//   - plain fp32 SGD;
//   - methods that keep an fp32 master copy of the weights and quantize
//     only the view used in FPROP: BNN (binary), TWN (ternary), TTQ
//     (trained ternary, asymmetric scales), DoReFa (k-bit weights and
//     k-bit gradients), TernGrad (fp32 weights, ternary gradients),
//     WAGE-style (8-bit weights, no master copy), and an E2-Train-style
//     stochastic mini-batch-skipping fp32 run.
//
// Each setup function mutates the model's parameters (bitwidth, master
// copy) and returns the training hooks that realize the method's update
// rule, so internal/train runs every method through one loop.
package baselines

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Setup captures everything a method needs beyond the common loop.
type Setup struct {
	// Name is the method's display name in tables.
	Name string
	// BPROPPrecision is the representation used for weight updates, as
	// reported in Table I's "Model Precision in BPROP" column.
	BPROPPrecision string
	// GradHook and PostStepHook plug into train.Config's hooks (the
	// unnamed signature keeps this package independent of the training
	// loop).
	GradHook     func(params []*nn.Param) error
	PostStepHook func(params []*nn.Param) error
}

// FP32 leaves every parameter at full precision.
func FP32(params []*nn.Param) (Setup, error) {
	for _, p := range params {
		p.Q = nil
		p.Master = nil
	}
	return Setup{Name: "FP32 SGD", BPROPPrecision: "FP32"}, nil
}

// FixedBits quantizes every parameter to k bits with no master copy: the
// same k-bit tensor serves FPROP and BPROP, updated with the truncated
// rule — APT's setting minus the adaptation.
func FixedBits(params []*nn.Param, k int) (Setup, error) {
	for _, p := range params {
		p.Master = nil
		if err := p.SetBits(k); err != nil {
			return Setup{}, fmt.Errorf("baselines: fixed %d-bit: %w", k, err)
		}
	}
	return Setup{
		Name:           fmt.Sprintf("%d-bit fixed", k),
		BPROPPrecision: fmt.Sprintf("%d-bit", k),
	}, nil
}

// masterQuant puts every weight parameter (rank > 1; biases and BN stay
// fp32, as in the original methods) into fp32-master mode at k bits.
func masterQuant(params []*nn.Param, k int) error {
	for _, p := range params {
		if p.Value.Rank() <= 1 {
			p.Q = nil
			p.Master = nil
			continue
		}
		p.EnableMaster()
		if err := p.SetBits(k); err != nil {
			return err
		}
	}
	return nil
}

// weightParams filters the convolutional/linear weights.
func weightParams(params []*nn.Param) []*nn.Param {
	var ws []*nn.Param
	for _, p := range params {
		if p.Value.Rank() > 1 {
			ws = append(ws, p)
		}
	}
	return ws
}

// BNN binarizes weights to ±α (α = mean |master|) in FPROP while updating
// an fp32 master in BPROP (Hubara et al.). Storage is counted at the
// 2-bit floor of Algorithm 1's range.
func BNN(params []*nn.Param) (Setup, error) {
	if err := masterQuant(params, quant.MinBits); err != nil {
		return Setup{}, fmt.Errorf("baselines: BNN: %w", err)
	}
	ws := weightParams(params)
	post := func([]*nn.Param) error {
		for _, p := range ws {
			alpha := float32(p.Master.AbsMean())
			md, vd := p.Master.Data(), p.Value.Data()
			for i, m := range md {
				if m >= 0 {
					vd[i] = alpha
				} else {
					vd[i] = -alpha
				}
			}
		}
		return nil
	}
	if err := post(nil); err != nil {
		return Setup{}, err
	}
	return Setup{Name: "BNN", BPROPPrecision: "FP32", PostStepHook: post}, nil
}

// TWN quantizes weights to {−α, 0, +α} with the Li et al. threshold
// Δ = 0.7·mean|w| and α = mean |w| over the live region, master in fp32.
func TWN(params []*nn.Param) (Setup, error) {
	if err := masterQuant(params, quant.MinBits); err != nil {
		return Setup{}, fmt.Errorf("baselines: TWN: %w", err)
	}
	ws := weightParams(params)
	post := func([]*nn.Param) error {
		for _, p := range ws {
			ternarize(p, 1, 1)
		}
		return nil
	}
	if err := post(nil); err != nil {
		return Setup{}, err
	}
	return Setup{Name: "TWN", BPROPPrecision: "FP32", PostStepHook: post}, nil
}

// TTQ is trained ternary quantization (Zhu et al.): like TWN but with
// independent positive and negative scales estimated from each side's
// live magnitudes.
func TTQ(params []*nn.Param) (Setup, error) {
	if err := masterQuant(params, quant.MinBits); err != nil {
		return Setup{}, fmt.Errorf("baselines: TTQ: %w", err)
	}
	ws := weightParams(params)
	post := func([]*nn.Param) error {
		for _, p := range ws {
			ternarizeAsym(p)
		}
		return nil
	}
	if err := post(nil); err != nil {
		return Setup{}, err
	}
	return Setup{Name: "TTQ", BPROPPrecision: "FP32", PostStepHook: post}, nil
}

// ternarize maps Value = scalePos·𝟙[master > Δ] − scaleNeg·𝟙[master < −Δ]
// with shared scale (scalePos = scaleNeg when symmetric).
func ternarize(p *nn.Param, symPos, symNeg float64) {
	md, vd := p.Master.Data(), p.Value.Data()
	delta := 0.7 * float32(p.Master.AbsMean())
	var sum float64
	var n int
	for _, m := range md {
		if m > delta || m < -delta {
			sum += math.Abs(float64(m))
			n++
		}
	}
	alpha := float32(0)
	if n > 0 {
		alpha = float32(sum / float64(n))
	}
	for i, m := range md {
		switch {
		case m > delta:
			vd[i] = alpha * float32(symPos)
		case m < -delta:
			vd[i] = -alpha * float32(symNeg)
		default:
			vd[i] = 0
		}
	}
}

func ternarizeAsym(p *nn.Param) {
	md, vd := p.Master.Data(), p.Value.Data()
	delta := 0.7 * float32(p.Master.AbsMean())
	var sumP, sumN float64
	var nP, nN int
	for _, m := range md {
		if m > delta {
			sumP += float64(m)
			nP++
		} else if m < -delta {
			sumN -= float64(m)
			nN++
		}
	}
	aP, aN := float32(0), float32(0)
	if nP > 0 {
		aP = float32(sumP / float64(nP))
	}
	if nN > 0 {
		aN = float32(sumN / float64(nN))
	}
	for i, m := range md {
		switch {
		case m > delta:
			vd[i] = aP
		case m < -delta:
			vd[i] = -aN
		default:
			vd[i] = 0
		}
	}
}

// DoReFa quantizes weights to k bits in FPROP (tanh-normalized affine
// code, per Zhou et al.) and gradients to k bits with stochastic-free
// midtread rounding, while keeping fp32 masters for the update.
func DoReFa(params []*nn.Param, k int) (Setup, error) {
	if err := masterQuant(params, k); err != nil {
		return Setup{}, fmt.Errorf("baselines: DoReFa: %w", err)
	}
	ws := weightParams(params)
	grad := func([]*nn.Param) error {
		for _, p := range ws {
			quantizeGradAffine(p.Grad, k)
		}
		return nil
	}
	return Setup{
		Name:           fmt.Sprintf("DoReFa-%d", k),
		BPROPPrecision: "FP32",
		GradHook:       grad,
	}, nil
}

// TernGrad keeps weights in fp32 and ternarizes gradients to
// {−s, 0, +s} with s = max|g|, drawing each element's level by TernGrad's
// stochastic rounding (quant.Ternarize, P(±s) = |g|/s) from rng.
func TernGrad(params []*nn.Param, rng *tensor.RNG) (Setup, error) {
	for _, p := range params {
		p.Q = nil
		p.Master = nil
	}
	ws := weightParams(params)
	grad := func([]*nn.Param) error {
		for _, p := range ws {
			quant.Ternarize(p.Grad, rng)
		}
		return nil
	}
	return Setup{Name: "TernGrad", BPROPPrecision: "FP32", GradHook: grad}, nil
}

// quantizeGradAffine snaps a gradient tensor onto a k-bit affine grid over
// its live range.
func quantizeGradAffine(g *tensor.Tensor, k int) {
	min, max := g.MinMax()
	eps := quant.Epsilon(min, max, k)
	if eps == 0 {
		return
	}
	d := g.Data()
	for i, v := range d {
		q := float32(math.Round(float64(v-min) / float64(eps)))
		d[i] = min + q*eps
	}
}

// WAGE trains with 8-bit weights and no fp32 master, mirroring Wu et
// al.'s integer-only pipeline within our affine scheme. It is the one
// prior method in Table I that, like APT, saves training memory.
func WAGE(params []*nn.Param) (Setup, error) {
	s, err := FixedBits(params, 8)
	if err != nil {
		return Setup{}, err
	}
	s.Name = "WAGE-style"
	s.BPROPPrecision = "8-bit"
	return s, nil
}

// E2Train keeps fp32 precision but stochastically skips a fraction of
// mini-batch updates (Wang et al.'s stochastic mini-batch dropping),
// modelling its energy saving as compute skipped rather than precision
// reduced.
func E2Train(params []*nn.Param, dropProb float64, rng *tensor.RNG) (Setup, error) {
	if dropProb < 0 || dropProb >= 1 {
		return Setup{}, fmt.Errorf("baselines: E2Train drop probability %g outside [0, 1)", dropProb)
	}
	for _, p := range params {
		p.Q = nil
		p.Master = nil
	}
	grad := func(ps []*nn.Param) error {
		if rng.Float64() < dropProb {
			for _, p := range ps {
				p.Grad.Zero()
			}
		}
		return nil
	}
	return Setup{Name: "E2-Train-style", BPROPPrecision: "FP32", GradHook: grad}, nil
}
