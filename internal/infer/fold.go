package infer

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// stage is one fold-level unit of the float graph: a conv or linear with
// folded BN and an optional fused ReLU, a passthrough pooling/reshape
// layer, or a residual block of nested stages. It carries a float
// evaluator (the calibration pass, which also records the stage's output
// range) and the lowering rule.
type stage struct {
	label string

	// conv/linear payload (nil for passthrough and residual stages)
	weight *tensor.Tensor // conv: (outC, inC, KH, KW); linear: (out, in)
	bias   []float32
	geom   *tensor.ConvGeom // nil for linear
	relu   bool
	cap    float32 // clipped rectifier ceiling (ReLU6); 0 = unbounded

	// passthrough payload
	pass nn.Layer

	// residual payload
	res *resStage

	// outRange is the float range of this stage's output observed during
	// calibration.
	outRange [2]float32
}

// resStage is a folded residual block: two branch chains joined by a
// requantizing add (plus the block's output ReLU).
type resStage struct {
	main     []*stage
	shortcut []*stage // nil = identity shortcut
	relu     bool
}

// foldSequential walks a flat layer list, folding Conv→BN(→ReLU) and
// Linear(→ReLU) into stages, passing pooling/flatten through and
// recursing into residual blocks.
func foldSequential(layers []nn.Layer) ([]*stage, error) {
	flat, err := flatten(layers)
	if err != nil {
		return nil, err
	}
	var stages []*stage
	for i := 0; i < len(flat); i++ {
		switch l := flat[i].(type) {
		case *nn.Conv2D:
			st := &stage{label: l.Name()}
			g := l.Geom()
			st.geom = &g
			st.weight = l.Params()[0].Value.Clone()
			outC := st.weight.Dim(0)
			st.bias = make([]float32, outC)
			if ps := l.Params(); len(ps) > 1 {
				copy(st.bias, ps[1].Value.Data())
			}
			i += foldBNReLU(st, flat, i)
			stages = append(stages, st)
		case *nn.Linear:
			st := &stage{label: l.Name()}
			st.weight = l.Params()[0].Value.Clone()
			out := st.weight.Dim(0)
			st.bias = make([]float32, out)
			if ps := l.Params(); len(ps) > 1 {
				copy(st.bias, ps[1].Value.Data())
			}
			if i+1 < len(flat) {
				if r, ok := flat[i+1].(*nn.ReLU); ok {
					st.relu = true
					st.cap = r.Cap()
					i++
				}
			}
			stages = append(stages, st)
		case *nn.MaxPool2D, *nn.GlobalAvgPool, *nn.Flatten:
			stages = append(stages, &stage{label: l.Name(), pass: l})
		case *nn.Residual:
			st, err := foldResidual(l)
			if err != nil {
				return nil, err
			}
			stages = append(stages, st)
		case *nn.BatchNorm2D:
			return nil, fmt.Errorf("infer: batch-norm %q not preceded by a convolution", l.Name())
		case *nn.ReLU:
			return nil, fmt.Errorf("infer: bare activation %q cannot be fused", l.Name())
		default:
			return nil, fmt.Errorf("infer: unsupported layer %T (%s); integer lowering handles conv backbones with residual blocks", l, l.Name())
		}
	}
	return stages, nil
}

// foldResidual folds a residual block's branches recursively. Each branch
// lowers to its own stage chain; the block joins them with a requantizing
// integer add at lowering time.
func foldResidual(r *nn.Residual) (*stage, error) {
	main, err := foldSequential([]nn.Layer{r.Main()})
	if err != nil {
		return nil, fmt.Errorf("infer: residual %q main: %w", r.Name(), err)
	}
	if len(main) == 0 {
		return nil, fmt.Errorf("infer: residual %q has an empty main branch", r.Name())
	}
	res := &resStage{main: main, relu: r.WithReLU()}
	if sc := r.Shortcut(); sc != nil {
		short, err := foldSequential([]nn.Layer{sc})
		if err != nil {
			return nil, fmt.Errorf("infer: residual %q shortcut: %w", r.Name(), err)
		}
		if len(short) == 0 {
			return nil, fmt.Errorf("infer: residual %q has an empty shortcut branch", r.Name())
		}
		res.shortcut = short
	}
	return &stage{label: r.Name(), res: res}, nil
}

// foldBNReLU consumes a following BatchNorm2D and ReLU if present,
// folding them into st; it returns how many layers were consumed.
func foldBNReLU(st *stage, flat []nn.Layer, i int) int {
	consumed := 0
	if i+1 < len(flat) {
		if bn, ok := flat[i+1].(*nn.BatchNorm2D); ok {
			foldBN(st, bn)
			consumed++
		}
	}
	if i+consumed+1 < len(flat) {
		if r, ok := flat[i+consumed+1].(*nn.ReLU); ok {
			st.relu = true
			st.cap = r.Cap()
			consumed++
		}
	}
	return consumed
}

// foldBN rescales st's weights and bias by the batch-norm affine:
// w' = w·γ/σ, b' = (b − μ)·γ/σ + β, using the BN's running statistics.
func foldBN(st *stage, bn *nn.BatchNorm2D) {
	mean, variance := bn.RunningStats()
	ps := bn.Params()
	gamma := ps[0].Value.Data()
	beta := ps[1].Value.Data()
	outC := st.weight.Dim(0)
	per := st.weight.Len() / outC
	wd := st.weight.Data()
	for c := 0; c < outC; c++ {
		std := float32(math.Sqrt(variance[c] + 1e-5))
		scale := gamma[c] / std
		for j := 0; j < per; j++ {
			wd[c*per+j] *= scale
		}
		st.bias[c] = (st.bias[c]-float32(mean[c]))*scale + beta[c]
	}
}

// flatten expands Sequential containers into a flat list; Residual blocks
// pass through intact (foldSequential recurses into their branches).
func flatten(layers []nn.Layer) ([]nn.Layer, error) {
	var out []nn.Layer
	for _, l := range layers {
		switch v := l.(type) {
		case *nn.Sequential:
			inner, err := flatten(v.Layers())
			if err != nil {
				return nil, err
			}
			out = append(out, inner...)
		default:
			out = append(out, l)
		}
	}
	return out, nil
}

// calibrate evaluates the stage on a float tensor, recording this stage's
// (and, for residual blocks, every inner stage's) output range.
func (st *stage) calibrate(x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := st.floatForward(x)
	if err != nil {
		return nil, err
	}
	min, max := out.MinMax()
	st.outRange = [2]float32{min, max}
	return out, nil
}

// calibrateChain runs calibrate through a stage list.
func calibrateChain(stages []*stage, x *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for _, st := range stages {
		x, err = st.calibrate(x)
		if err != nil {
			return nil, fmt.Errorf("calibrate %s: %w", st.label, err)
		}
	}
	return x, nil
}

// floatForward evaluates the stage on float tensors (calibration pass).
func (st *stage) floatForward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if st.pass != nil {
		return st.pass.Forward(x, false)
	}
	if st.res != nil {
		return st.res.floatForward(x)
	}
	if st.geom != nil {
		return st.floatConv(x)
	}
	return st.floatLinear(x)
}

func (r *resStage) floatForward(x *tensor.Tensor) (*tensor.Tensor, error) {
	my, err := calibrateChain(r.main, x)
	if err != nil {
		return nil, err
	}
	sy := x
	if r.shortcut != nil {
		sy, err = calibrateChain(r.shortcut, x)
		if err != nil {
			return nil, err
		}
	}
	out := my.Clone()
	if err := out.Add(sy); err != nil {
		return nil, err
	}
	if r.relu {
		d := out.Data()
		for i, v := range d {
			if v < 0 {
				d[i] = 0
			}
		}
	}
	return out, nil
}

func (st *stage) floatConv(x *tensor.Tensor) (*tensor.Tensor, error) {
	g := *st.geom
	n := x.Dim(0)
	oh, ow := g.OutHW()
	outC := st.weight.Dim(0)
	out := tensor.New(n, outC, oh, ow)
	for i := 0; i < n; i++ {
		img, err := tensor.FromSlice(
			x.Data()[i*g.InC*g.InH*g.InW:(i+1)*g.InC*g.InH*g.InW], g.InC, g.InH, g.InW)
		if err != nil {
			return nil, err
		}
		res, err := tensor.ConvDirect(img, st.weight, g)
		if err != nil {
			return nil, err
		}
		copy(out.Data()[i*outC*oh*ow:(i+1)*outC*oh*ow], res.Data())
	}
	st.addBiasAct(out, outC, oh*ow)
	return out, nil
}

func (st *stage) floatLinear(x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := tensor.MatMulTransB(x, st.weight)
	if err != nil {
		return nil, err
	}
	st.addBiasAct(out, st.weight.Dim(0), 1)
	return out, nil
}

func (st *stage) addBiasAct(out *tensor.Tensor, channels, plane int) {
	d := out.Data()
	n := out.Dim(0)
	for i := 0; i < n; i++ {
		for c := 0; c < channels; c++ {
			b := st.bias[c]
			row := d[(i*channels+c)*plane : (i*channels+c+1)*plane]
			for j := range row {
				row[j] += b
				if st.relu && row[j] < 0 {
					row[j] = 0
				}
				if st.cap > 0 && row[j] > st.cap {
					row[j] = st.cap // clipped rectifier (ReLU6)
				}
			}
		}
	}
}
