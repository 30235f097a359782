package infer

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// lowerChain converts a calibrated stage list into integer layers,
// threading the activation grid from one layer to the next (every grid is
// fixed at compile time, so the forward path never touches float scale
// arithmetic). nextID allocates scratch buffer slots.
func lowerChain(stages []*stage, in grid, cfg Config, nextID func() int) ([]qlayer, grid, error) {
	layers := make([]qlayer, 0, len(stages))
	g := in
	for _, st := range stages {
		ql, out, err := st.lower(g, cfg, nextID)
		if err != nil {
			return nil, grid{}, fmt.Errorf("lower %s: %w", st.label, err)
		}
		layers = append(layers, ql)
		g = out
	}
	return layers, g, nil
}

// lower converts one calibrated stage into its integer form given the
// input activation grid; it returns the lowered layer and its output grid.
func (st *stage) lower(in grid, cfg Config, nextID func() int) (qlayer, grid, error) {
	switch {
	case st.pass != nil:
		return lowerPass(st, in, nextID)
	case st.res != nil:
		return lowerResidual(st, in, cfg, nextID)
	default:
		return lowerAffine(st, in, cfg, nextID)
	}
}

// outGrid derives the stage's output grid from its calibrated range, with
// the fused ReLU pinning the floor at zero.
func (st *stage) outGrid() grid {
	min, max := st.outRange[0], st.outRange[1]
	if st.relu && min < 0 {
		min = 0
	}
	return gridFor(min, max)
}

// lowerPass lowers pooling/reshape layers, which stay on the input grid:
// max commutes with the monotone affine map, the channel mean is computed
// with integer rounding on the same grid, and flatten moves no data.
func lowerPass(st *stage, in grid, nextID func() int) (qlayer, grid, error) {
	switch l := st.pass.(type) {
	case *nn.MaxPool2D:
		return &qmaxpool{label: st.label, buf: nextID(), k: l.Window()}, in, nil
	case *nn.GlobalAvgPool:
		return &qgap{label: st.label, buf: nextID()}, in, nil
	case *nn.Flatten:
		return &qflatten{label: st.label, buf: nextID()}, in, nil
	default:
		return nil, grid{}, fmt.Errorf("unsupported passthrough layer %T", st.pass)
	}
}

// lowerAffine lowers a folded conv or linear stage: symmetric int8
// weights (per-output-channel scales unless cfg.PerTensorWeights), int32
// bias and zero-point corrections folded into one per-channel constant,
// and the requantization multiplier M = S_x·S_w[oc]/S_y lowered to fixed
// point.
func lowerAffine(st *stage, in grid, cfg Config, nextID func() int) (qlayer, grid, error) {
	out := st.outGrid()
	outC := st.weight.Dim(0)
	per := st.weight.Len() / outC

	var weights []int8
	var wscale []float32
	if cfg.PerTensorWeights {
		var s float32
		weights, s = quantizeWeightsSym(st.weight)
		wscale = make([]float32, outC)
		for c := range wscale {
			wscale[c] = s
		}
	} else {
		weights, wscale = quantizeWeightsPerChannel(st.weight)
	}

	// Lower the weights to prepacked column panels once, here: the weight
	// tensor's (outC, per) layout is exactly the transposed-B orientation
	// the packer consumes, and the hot path never repacks. Pack time also
	// fixes the kernel route for this layer (fast saturating-int16 kernel
	// vs exact widening kernel; see tensor.PackedI8.Saturating).
	packed, err := tensor.PackI8PanelsBT(weights, per, outC)
	if err != nil {
		return nil, grid{}, err
	}
	q := &qaffine{
		label:  st.label,
		buf:    nextID(),
		packed: packed,
		outC:   outC,
		in:     in,
		out:    out,
		m0:     make([]int32, outC),
		rsh:    make([]int32, outC),
		corr:   make([]int64, outC),
		nbias:  len(st.bias),
		relu:   st.relu,
	}
	if st.geom != nil {
		if q.plan, err = tensor.NewConvPlanU8(*st.geom); err != nil {
			return nil, grid{}, err
		}
	} else {
		q.inF = per
	}
	for c := 0; c < outC; c++ {
		// Σ q_w for the zero-point correction: with the im2col padding
		// value equal to Z_x, acc − Z_x·Σq_w is exact at every position.
		var ksum int64
		for _, w := range weights[c*per : (c+1)*per] {
			ksum += int64(w)
		}
		sw := float64(in.scale) * float64(wscale[c])
		q.m0[c], q.rsh[c] = lowerMultiplier(sw / float64(out.scale))
		biasq := math.Round(float64(st.bias[c]) / sw)
		if biasq > float64(accMax) {
			biasq = float64(accMax)
		} else if biasq < float64(accMin) {
			biasq = float64(accMin)
		}
		q.corr[c] = int64(biasq) - int64(in.zero)*ksum
	}
	return q, out, nil
}

// lowerResidual lowers a residual block: both branch chains recursively,
// then the joining add as a pair of fixed-point rescales onto the block's
// output grid.
func lowerResidual(st *stage, in grid, cfg Config, nextID func() int) (qlayer, grid, error) {
	main, mainOut, err := lowerChain(st.res.main, in, cfg, nextID)
	if err != nil {
		return nil, grid{}, err
	}
	r := &qresidual{label: st.label, buf: nextID(), main: main, relu: st.res.relu}
	shortOut := in
	if st.res.shortcut != nil {
		r.shortcut, shortOut, err = lowerChain(st.res.shortcut, in, cfg, nextID)
		if err != nil {
			return nil, grid{}, err
		}
	}
	st.relu = st.res.relu // outGrid clamps the floor when the block ReLUs
	out := st.outGrid()
	r.mainZ = mainOut.zero
	r.shortZ = shortOut.zero
	r.out = out
	r.m0Main, r.rshMain = lowerMultiplier(float64(mainOut.scale) / float64(out.scale))
	r.m0Short, r.rshShort = lowerMultiplier(float64(shortOut.scale) / float64(out.scale))
	return r, out, nil
}

// quantizeWeightsSym maps weights onto symmetric int8 with one per-tensor
// scale: w ≈ scale·q with q ∈ [−127, 127] and zero point 0 (a zero zero
// point removes the cross terms from the integer GEMM).
func quantizeWeightsSym(w *tensor.Tensor) ([]int8, float32) {
	min, max := w.MinMax()
	absMax := float32(math.Max(math.Abs(float64(min)), math.Abs(float64(max))))
	scale := symScale(absMax)
	out := make([]int8, w.Len())
	quantizeRow(out, w.Data(), scale)
	return out, scale
}

// quantizeWeightsPerChannel maps weights onto symmetric int8 with one
// scale per output channel (axis 0). Per-channel scales let every filter
// use the full int8 range regardless of the widest filter in the tensor,
// measurably tightening quantized-vs-float agreement.
func quantizeWeightsPerChannel(w *tensor.Tensor) ([]int8, []float32) {
	outC := w.Dim(0)
	per := w.Len() / outC
	out := make([]int8, w.Len())
	scales := make([]float32, outC)
	wd := w.Data()
	for c := 0; c < outC; c++ {
		row := wd[c*per : (c+1)*per]
		var absMax float32
		for _, v := range row {
			a := float32(math.Abs(float64(v)))
			if a > absMax {
				absMax = a
			}
		}
		scales[c] = symScale(absMax)
		quantizeRow(out[c*per:(c+1)*per], row, scales[c])
	}
	return out, scales
}

func symScale(absMax float32) float32 {
	if absMax == 0 {
		absMax = 1e-6
	}
	return absMax / 127
}

func quantizeRow(dst []int8, src []float32, scale float32) {
	for i, v := range src {
		q := math.Round(float64(v) / float64(scale))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
}
