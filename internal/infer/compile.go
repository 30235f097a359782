package infer

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The compile walk. Every node lowers to exactly one integer layer — a
// ConvBNAct node (a bare Conv2D or Linear is a node with no batch-norm
// and no activation), a pool or flatten layer, a Residual block — and each
// node runs its own nn layers in evaluation mode over the calibration
// samples, records the range its output reaches, and lowers on the spot
// against the grid its input arrived on. The model's layers are the only
// float graph.
//
// Calibration feeds one sample at a time, each a fresh tensor: evaluation-
// mode layers treat samples independently, so the ranges are those of the
// whole batch, while layers keep their input by reference and grow their
// arenas to the batch they see — a batch, or a view of one, would stay
// pinned in the model after Compile returns.

// flow is what reaches a group during the walk: the calibration samples,
// one fresh (1, …) tensor each, and the grid the engine carries them on.
type flow struct {
	xs []*tensor.Tensor
	g  grid
}

// compiler allocates the scratch slots of the layers one walk lowers.
type compiler struct{ nbuf int }

func (c *compiler) nextID() int {
	id := c.nbuf
	c.nbuf++
	return id
}

// samples splits a calibration batch into fresh one-sample tensors.
func samples(x *tensor.Tensor) []*tensor.Tensor {
	n := x.Dim(0)
	per := x.Len() / n
	shape := append([]int{1}, x.Shape()[1:]...)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.MustFromSlice(slices.Clone(x.Data()[i*per:(i+1)*per]), shape...)
	}
	return xs
}

// chain lowers a layer list node by node, threading the samples and their
// grid from one node to the next; a Sequential contributes its nodes in
// order.
func (c *compiler) chain(layers []nn.Layer, f flow) ([]qlayer, flow, error) {
	qs := make([]qlayer, 0, len(layers))
	for _, l := range layers {
		if s, ok := l.(*nn.Sequential); ok {
			sub, out, err := c.chain(s.Layers(), f)
			if err != nil {
				return nil, flow{}, err
			}
			qs, f = append(qs, sub...), out
			continue
		}
		q, out, err := c.lower(l, f)
		if err != nil {
			return nil, flow{}, fmt.Errorf("%s: %w", l.Name(), err)
		}
		qs, f = append(qs, q), out
	}
	return qs, f, nil
}

// lower lowers one node and returns what leaves it.
func (c *compiler) lower(l nn.Layer, f flow) (qlayer, flow, error) {
	var q qlayer
	switch l := l.(type) {
	case *nn.ConvBNAct:
		return c.node(l, f)
	case *nn.Conv2D, *nn.Linear:
		return c.node(nn.NewConvBNAct(l.Name(), l, nil, nil), f)
	case *nn.Residual:
		return c.residual(l, f)
	// Pooling and flatten stay on the input grid: max commutes with the
	// monotone affine map, the channel mean is computed with integer
	// rounding on the same grid, and flatten moves no data.
	case *nn.MaxPool2D:
		q = &qmaxpool{label: l.Name(), buf: c.nextID(), k: l.Window()}
	case *nn.GlobalAvgPool:
		q = &qgap{label: l.Name(), buf: c.nextID()}
	case *nn.Flatten:
		q = &qflatten{label: l.Name(), buf: c.nextID()}
	default:
		return nil, flow{}, fmt.Errorf("unsupported layer %T; integer lowering handles conv backbones with residual blocks", l)
	}
	ys, _, _, err := feed(l, f.xs)
	if err != nil {
		return nil, flow{}, err
	}
	return q, flow{ys, f.g}, nil
}

// node lowers a Conv2D or Linear node: it calibrates, then folds the
// batch-norm into a clone of the weights and the rectifier into the
// requantization clamp.
func (c *compiler) node(n *nn.ConvBNAct, f flow) (qlayer, flow, error) {
	relu := n.Act() != nil
	if _, ok := n.Act().(*nn.ReLU); relu && !ok {
		return nil, flow{}, fmt.Errorf("unsupported activation %T (%s)", n.Act(), n.Act().Name())
	}
	var geom *tensor.ConvGeom
	switch op := n.Op().(type) {
	case *nn.Conv2D:
		g := op.Geom()
		geom = &g
	case *nn.Linear:
	default:
		return nil, flow{}, fmt.Errorf("unsupported layer %T (%s)", op, op.Name())
	}
	ys, lo, hi, err := feed(n, f.xs)
	if err != nil {
		return nil, flow{}, err
	}
	ps := n.Op().Params()
	w := ps[0].Value.Clone()
	bias := make([]float32, w.Dim(0))
	if len(ps) > 1 {
		copy(bias, ps[1].Value.Data())
	}
	if bn := n.BN(); bn != nil {
		foldBN(w, bias, bn)
	}
	out := gridFor(lo, hi)
	q, err := lowerAffine(n.Name(), w, bias, geom, relu, f.g, out, c.nextID())
	if err != nil {
		return nil, flow{}, err
	}
	return q, flow{ys, out}, nil
}

// residual lowers a residual block: both branches as chains of their own
// (an empty chain is the identity, as in the float block), then the
// joining add, calibrated by the block itself, as a pair of fixed-point
// rescales onto the block's output grid.
func (c *compiler) residual(r *nn.Residual, f flow) (qlayer, flow, error) {
	main, mainOut, err := c.chain([]nn.Layer{r.Main()}, f)
	if err != nil {
		return nil, flow{}, fmt.Errorf("main: %w", err)
	}
	q := &qresidual{label: r.Name(), buf: c.nextID(), main: main, relu: r.WithReLU()}
	shortOut := f
	if sc := r.Shortcut(); sc != nil {
		if q.shortcut, shortOut, err = c.chain([]nn.Layer{sc}, f); err != nil {
			return nil, flow{}, fmt.Errorf("shortcut: %w", err)
		}
	}
	ys, lo, hi, err := feed(r, f.xs)
	if err != nil {
		return nil, flow{}, err
	}
	q.out = gridFor(lo, hi)
	q.mainZ, q.shortZ = mainOut.g.zero, shortOut.g.zero
	q.m0Main, q.rshMain = lowerMultiplier(float64(mainOut.g.scale) / float64(q.out.scale))
	q.m0Short, q.rshShort = lowerMultiplier(float64(shortOut.g.scale) / float64(q.out.scale))
	return q, flow{ys, q.out}, nil
}

// feed runs each sample through l in evaluation mode and returns the
// outputs, each a fresh tensor, and the range they reach.
func feed(l nn.Layer, xs []*tensor.Tensor) (ys []*tensor.Tensor, lo, hi float32, err error) {
	ys = make([]*tensor.Tensor, len(xs))
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for i, x := range xs {
		y, err := l.Forward(x, false)
		if err != nil {
			return nil, 0, 0, err
		}
		mn, mx := y.MinMax()
		lo, hi = min(lo, mn), max(hi, mx)
		ys[i] = y.Clone() // the layer's arena is overwritten by the next sample
	}
	return ys, lo, hi, nil
}

// foldBN rescales a conv's weights and bias in place by the batch-norm
// affine: w' = w·γ/σ, b' = (b − μ)·γ/σ + β, using the BN's running
// statistics.
func foldBN(w *tensor.Tensor, bias []float32, bn *nn.BatchNorm2D) {
	mean, variance := bn.RunningStats()
	ps := bn.Params()
	gamma := ps[0].Value.Data()
	beta := ps[1].Value.Data()
	outC := w.Dim(0)
	per := w.Len() / outC
	wd := w.Data()
	for c := 0; c < outC; c++ {
		std := float32(math.Sqrt(variance[c] + 1e-5))
		scale := gamma[c] / std
		for j := 0; j < per; j++ {
			wd[c*per+j] *= scale
		}
		bias[c] = (bias[c]-float32(mean[c]))*scale + beta[c]
	}
}

// lowerAffine lowers a folded conv (geom non-nil) or linear: symmetric int8
// weights with per-output-channel scales, int32 bias and zero-point
// corrections folded into one per-channel constant, and the
// requantization multiplier M = S_x·S_w[oc]/S_y lowered to fixed point.
// relu makes the requantization clamp at the output zero point.
func lowerAffine(label string, w *tensor.Tensor, bias []float32, geom *tensor.ConvGeom, relu bool, in, out grid, buf int) (*qaffine, error) {
	outC := w.Dim(0)
	per := w.Len() / outC
	weights, wscale := quantizeWeightsPerChannel(w)

	// Lower the weights to prepacked column panels once, here: the weight
	// tensor's (outC, per) layout is exactly the transposed-B orientation
	// the packer consumes, and the hot path never repacks. Pack time also
	// fixes the kernel route for this layer (fast saturating-int16 kernel
	// vs exact widening kernel; see tensor/matmul_int_packed.go).
	packed, err := tensor.PackI8PanelsBT(weights, per, outC)
	if err != nil {
		return nil, err
	}
	q := &qaffine{
		label:  label,
		buf:    buf,
		packed: packed,
		outC:   outC,
		in:     in,
		out:    out,
		m0:     make([]int32, outC),
		rsh:    make([]int32, outC),
		corr:   make([]int64, outC),
		nbias:  len(bias),
		relu:   relu,
	}
	if geom != nil {
		if q.plan, err = tensor.NewConvPlanU8(*geom); err != nil {
			return nil, err
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
		biasq := min(max(math.Round(float64(bias[c])/sw), float64(accMin)), float64(accMax))
		q.corr[c] = int64(biasq) - int64(in.zero)*ksum
	}
	return q, nil
}

// quantizeWeightsPerChannel maps weights onto symmetric int8 with one
// scale per output channel (axis 0): w ≈ scale[c]·q with q ∈ [−127, 127]
// and zero point 0 (a zero zero point removes the cross terms from the
// integer GEMM). Per-channel scales let every filter use the full int8
// range regardless of the widest filter in the tensor.
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
			absMax = max(absMax, float32(math.Abs(float64(v))))
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
		dst[i] = int8(min(max(math.Round(float64(v)/float64(scale)), -127), 127))
	}
}
