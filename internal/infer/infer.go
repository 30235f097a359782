// Package infer compiles a trained float model into an integer-only
// inference engine, completing the edge-deployment story of the paper's
// quantization scheme: §III adopts the affine map r = S(q − Z) from Jacob
// et al. (CVPR 2018) precisely because it admits integer-arithmetic-only
// inference, and a model trained with APT is deployed this way.
//
// Compilation is one walk over the model's layers (compile.go) that
// performs the standard pipeline group by group:
//
//  1. batch-norm folding — each Conv→BN pair collapses into one
//     convolution with rescaled weights and a bias;
//  2. range calibration — the calibration batch runs through the model's
//     own layers in evaluation mode, one sample at a time, recording each
//     group's output min/max and fixing every quantization grid at
//     compile time;
//  3. integer lowering — weights become symmetric int8 with
//     per-output-channel scales (zero point 0), activations affine uint8;
//     convolutions and linears run as one batched uint8×int8→int32 GEMM
//     (im2col'd with the zero point as padding, so no border
//     special-casing) and requantize through the fixed-point multiplier
//     M = S_x·S_w/S_y ≈ m0·2^−rsh, fusing the ReLU as a clamp at the
//     output zero point. Residual blocks lower to a requantizing integer
//     add; pooling/reshape layers run directly on the uint8 payload.
//
// The hot path is integer-only end to end (floats appear only at the
// input/output boundary, as in a deployed runtime) and allocation-free at
// steady state: all intermediates live in per-call scratch workspaces
// leased from the engine's free list, which also makes concurrent
// Forward calls on one Engine safe — the compiled layers are immutable.
//
// Supported graphs are the sequential conv backbones (SmallCNN, CifarNet,
// VGGSmall) and residual topologies (ResNet): Conv2D, BatchNorm2D, ReLU
// (including the clipped ReLU6 variant, whose cap the layer applies during
// calibration, so the output grid tops out at it), MaxPool2D,
// GlobalAvgPool, Flatten, Linear, Residual.
package infer

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/models"
	"repro/internal/tensor"
)

// qlayer is one integer-lowered stage. forward reads x (a scratch slot
// owned by the producing layer) and writes this layer's own slot in s.
// Implementations hold only immutable compiled data, so one qlayer may
// run concurrently against different scratches.
type qlayer interface {
	name() string
	forward(x *qtensor, s *scratch) (*qtensor, error)
}

// Engine is a compiled integer inference graph. It is safe for
// concurrent use: every Forward call leases a private scratch workspace
// from a free list (allocating one only when all are in flight).
type Engine struct {
	layers        []qlayer
	in            grid
	inC, inH, inW int
	nbuf          int
	pool          chan *scratch
}

// Config controls Compile.
type Config struct {
	// Calibration provides representative inputs (N, m.InC, m.InH, m.InW);
	// the more representative, the tighter the activation grids.
	Calibration *tensor.Tensor
}

// Compile folds, calibrates and lowers a float model in one walk over its
// layers. It touches the model the way train.Evaluate does: the layers run
// in evaluation mode on their own scratch and the parameters are left
// alone. Compile must therefore not overlap training, another Compile or
// any other Forward of the same model.
func Compile(m *models.Model, cfg Config) (*Engine, error) {
	x := cfg.Calibration
	if x == nil {
		return nil, fmt.Errorf("infer: calibration batch (N,C,H,W) is required")
	}
	if x.Rank() != 4 || x.Dim(1) != m.InC || x.Dim(2) != m.InH || x.Dim(3) != m.InW {
		return nil, fmt.Errorf("infer: %w: calibration batch %v, want (N,%d,%d,%d)",
			tensor.ErrShape, x.Shape(), m.InC, m.InH, m.InW)
	}
	c := &compiler{}
	c.nextID() // slot 0: the quantized input
	in := gridFor(x.MinMax())
	layers, _, err := c.chain(m.Layers(), flow{samples(x), in})
	if err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}
	caps := runtime.GOMAXPROCS(0)
	if caps < 4 {
		caps = 4
	}
	return &Engine{
		layers: layers,
		in:     in,
		inC:    m.InC, inH: m.InH, inW: m.InW,
		nbuf: c.nbuf,
		pool: make(chan *scratch, caps),
	}, nil
}

// lease takes a scratch workspace from the free list, building a fresh
// one only when every pooled scratch is in flight.
func (e *Engine) lease() *scratch {
	select {
	case s := <-e.pool:
		return s
	default:
		return newScratch(e.nbuf)
	}
}

// release returns a scratch to the free list (dropping it when the list
// is full, e.g. after a burst of concurrent calls).
func (e *Engine) release(s *scratch) {
	select {
	case e.pool <- s:
	default:
	}
}

// Forward runs integer inference on a float input batch and returns float
// logits (dequantized at the boundary, as a deployed runtime would). The
// returned tensor is freshly allocated and owned by the caller. Forward
// is safe to call concurrently on one Engine; identical inputs produce
// bit-identical outputs regardless of concurrency or worker count
// (integer arithmetic has no reduction-order sensitivity).
func (e *Engine) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != e.inC || x.Dim(2) != e.inH || x.Dim(3) != e.inW {
		return nil, fmt.Errorf("infer: %w: input %v, want (N,%d,%d,%d)",
			tensor.ErrShape, x.Shape(), e.inC, e.inH, e.inW)
	}
	s := e.lease()
	defer e.release(s)
	return e.run(x, s)
}

// run executes the compiled graph in scratch s (shared by Forward and
// ForwardProfile).
func (e *Engine) run(x *tensor.Tensor, s *scratch) (*tensor.Tensor, error) {
	q := &s.acts[0]
	quantizeInto(q, x, e.in)
	var err error
	for _, l := range e.layers {
		q, err = l.forward(q, s)
		if err != nil {
			return nil, fmt.Errorf("infer: %s: %w", l.name(), err)
		}
	}
	return q.dequantize(), nil
}

// ForwardProfile runs one forward pass with per-stage timing: the
// returned profile splits wall time into im2col/gather packing, packed
// GEMM, requantization and everything else. Outputs are bit-identical to
// Forward (profiling only inserts clock reads and forces the conv band
// tasks serial so gather and GEMM attribute separately); it is meant for
// benchmarking, not the serving hot path.
func (e *Engine) ForwardProfile(x *tensor.Tensor) (*tensor.Tensor, *ForwardProfile, error) {
	if x.Rank() != 4 || x.Dim(1) != e.inC || x.Dim(2) != e.inH || x.Dim(3) != e.inW {
		return nil, nil, fmt.Errorf("infer: %w: input %v, want (N,%d,%d,%d)",
			tensor.ErrShape, x.Shape(), e.inC, e.inH, e.inW)
	}
	s := e.lease()
	defer e.release(s)
	var stages [3]time.Duration
	s.prof = &stages
	t0 := time.Now()
	out, err := e.run(x, s)
	total := time.Since(t0)
	s.prof = nil
	if err != nil {
		return nil, nil, err
	}
	p := &ForwardProfile{Im2col: stages[stageIm2col], GEMM: stages[stageGEMM], Requant: stages[stageRequant], Total: total}
	p.Other = max(0, p.Total-p.Im2col-p.GEMM-p.Requant)
	return out, p, nil
}

// ConvLowering describes how one conv layer was lowered, surfaced for
// benchmarks and traces.
type ConvLowering struct {
	Layer string // stage label
	Mode  string // always "implicit": the band gather is the one lowering
	Why   string // the gather route: "3x3 staged band" or "generic band"
}

// ConvLowerings reports every conv layer's lowering in forward order,
// residual branches included.
func (e *Engine) ConvLowerings() []ConvLowering {
	var out []ConvLowering
	collectLowerings(e.layers, &out)
	return out
}

func collectLowerings(layers []qlayer, out *[]ConvLowering) {
	for _, l := range layers {
		switch q := l.(type) {
		case *qaffine:
			if q.plan == nil {
				continue
			}
			why := "generic band"
			if g := q.plan.Geom(); g.KH == 3 && g.KW == 3 {
				why = "3x3 staged band"
			}
			*out = append(*out, ConvLowering{Layer: q.label, Mode: "implicit", Why: why})
		case *qresidual:
			collectLowerings(q.main, out)
			collectLowerings(q.shortcut, out)
		}
	}
}

// Classify returns the argmax class of each sample.
func (e *Engine) Classify(x *tensor.Tensor) ([]int, error) {
	logits, err := e.Forward(x)
	if err != nil {
		return nil, err
	}
	n := logits.Dim(0)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = logits.ArgMaxRow(i)
	}
	return out, nil
}

// InputShape returns the per-sample input geometry (C, H, W);
// serve.New reads it to default its sample validation.
func (e *Engine) InputShape() (c, h, w int) { return e.inC, e.inH, e.inW }

// SizeBytes returns the engine's parameter storage (int8 weights + int32
// biases), the deployed footprint.
func (e *Engine) SizeBytes() int {
	total := 0
	for _, l := range e.layers {
		if s, ok := l.(interface{ sizeBytes() int }); ok {
			total += s.sizeBytes()
		}
	}
	return total
}

// ---------------------------------------------------------------------------
// Integer layers
// ---------------------------------------------------------------------------

// qaffine is an integer conv or linear stage: prepacked int8 weight
// panels, uint8 activations, int32 accumulation through the packed
// integer GEMM, and fixed-point requantization onto the compile-time
// output grid with the fused activation clamp.
//
// The weight panels are built once at Compile time (tensor.PackI8PanelsBT
// over the symmetric int8 weights) and are immutable afterwards, so every
// concurrent Forward call shares them; the per-call GEMM does zero
// repacking. Pack time also decides the kernel route: panels whose
// adjacent weight pairs could saturate the int16 SIMD kernel run the
// exact widening kernel instead (see the saturation note atop
// tensor/matmul_int_packed.go).
type qaffine struct {
	label   string
	buf     int
	packed  *tensor.PackedI8   // conv: (kdim, outC); linear: (inF, outC)
	plan    *tensor.ConvPlanU8 // conv band-gather schedule; nil => linear
	outC    int
	inF     int // linear input features
	in, out grid
	m0      []int32 // per-channel fixed-point multiplier mantissa
	rsh     []int32 // per-channel right shift
	corr    []int64 // per-channel int32-domain bias − Z_x·Σq_w
	nbias   int
	relu    bool
}

func (q *qaffine) name() string { return q.label }

func (q *qaffine) sizeBytes() int { return q.packed.SizeBytes() + 4*q.nbias }

func (q *qaffine) forward(x *qtensor, s *scratch) (*qtensor, error) {
	if q.plan != nil {
		return q.conv(x, s)
	}
	return q.linear(x, s)
}

// conv runs the band-gather lowering: each band task gathers into a lane
// of the cols arena, accumulates into the lane's int32 tile in the acc
// arena and requantizes that tile into the NCHW output. Out-of-bounds taps
// gather as Z_x, exact float zero, so the per-channel correction term is
// position-independent.
func (q *qaffine) conv(x *qtensor, s *scratch) (*qtensor, error) {
	g := q.plan.Geom()
	if len(x.shape) != 4 || x.shape[1] != g.InC || x.shape[2] != g.InH || x.shape[3] != g.InW {
		return nil, fmt.Errorf("input %v does not match geometry %+v", x.shape, g)
	}
	n := x.dim(0)
	oh, ow := g.OutHW()
	out := s.act(q.buf, n, q.outC, oh, ow)
	out.g = q.out
	if err := tensor.ConvU8I8RequantInto(out.data, x.data, n, q.packed, q.plan, uint8(q.in.zero),
		q.m0, q.rsh, q.corr, q.out.zero, q.floor(), &s.cols, &s.acc, s.prof); err != nil {
		return nil, err
	}
	return out, nil
}

// floor is the requantization clamp: the output zero point under a fused
// ReLU, else 0.
func (q *qaffine) floor() int32 {
	if q.relu {
		return q.out.zero
	}
	return 0
}

// linear runs the batch as one packed integer GEMM against the prepacked
// weight panels and requantizes per output feature.
func (q *qaffine) linear(x *qtensor, s *scratch) (*qtensor, error) {
	if len(x.shape) != 2 || x.shape[1] != q.inF {
		return nil, fmt.Errorf("input %v does not match linear (N,%d)", x.shape, q.inF)
	}
	n := x.dim(0)
	acc := s.accBuf(n * q.outC)
	// Scratch payloads carry quadPad spare capacity past their length for
	// exactly this re-slice (see qtensor.setShape).
	aspan := (n-1)*q.inF + q.packed.PaddedK()
	t0 := profClock(s)
	if err := tensor.MatMulU8I8PackedInto(acc, x.data[:aspan], q.packed, n, q.inF); err != nil {
		return nil, err
	}
	profSpan(s, stageGEMM, t0)
	out := s.act(q.buf, n, q.outC)
	out.g = q.out
	t0 = profClock(s)
	tensor.RequantQ31Rows(out.data, acc, q.m0, q.rsh, q.corr, q.out.zero, q.floor(),
		n, q.outC, q.outC, q.outC)
	profSpan(s, stageRequant, t0)
	return out, nil
}

// qmaxpool is a non-overlapping k×k max pool running directly on the
// uint8 payload: max commutes with the monotone affine map, so the output
// stays on the input grid.
type qmaxpool struct {
	label string
	buf   int
	k     int
}

func (p *qmaxpool) name() string { return p.label }

func (p *qmaxpool) forward(x *qtensor, s *scratch) (*qtensor, error) {
	if len(x.shape) != 4 {
		return nil, fmt.Errorf("%w: maxpool input %v", tensor.ErrShape, x.shape)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if h%p.k != 0 || w%p.k != 0 {
		return nil, fmt.Errorf("%w: maxpool input %dx%d not divisible by window %d", tensor.ErrShape, h, w, p.k)
	}
	oh, ow := h/p.k, w/p.k
	out := s.act(p.buf, n, c, oh, ow)
	out.g = x.g
	if tensor.MaxWorkers() == 1 {
		for t := 0; t < n*c; t++ {
			p.poolPlane(x.data, out.data, h, w, t)
		}
		return out, nil
	}
	tensor.ParallelFor(n*c, func(t int) { p.poolPlane(x.data, out.data, h, w, t) })
	return out, nil
}

// poolPlane max-pools one channel plane of the uint8 payload.
func (p *qmaxpool) poolPlane(src, dst []uint8, h, w, t int) {
	k := p.k
	oh, ow := h/k, w/k
	in := src[t*h*w : (t+1)*h*w]
	out := dst[t*oh*ow : (t+1)*oh*ow]
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			bv := in[oy*k*w+ox*k]
			for ky := 0; ky < k; ky++ {
				row := in[(oy*k+ky)*w+ox*k : (oy*k+ky)*w+ox*k+k]
				for _, v := range row {
					if v > bv {
						bv = v
					}
				}
			}
			out[oy*ow+ox] = bv
		}
	}
}

// qgap is a global average pool on the uint8 payload: the mean of grid
// points is the grid point of the mean (up to one rounding quantum), so
// the output stays on the input grid, computed with integer rounding.
type qgap struct {
	label string
	buf   int
}

func (p *qgap) name() string { return p.label }

func (p *qgap) forward(x *qtensor, s *scratch) (*qtensor, error) {
	if len(x.shape) != 4 {
		return nil, fmt.Errorf("%w: gap input %v", tensor.ErrShape, x.shape)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	plane := h * w
	out := s.act(p.buf, n, c)
	out.g = x.g
	for t := 0; t < n*c; t++ {
		row := x.data[t*plane : (t+1)*plane]
		var sum int32
		for _, v := range row {
			sum += int32(v)
		}
		// Round half up: (2·sum + plane) / (2·plane).
		out.data[t] = uint8((2*sum + int32(plane)) / int32(2*plane))
	}
	return out, nil
}

// qflatten reshapes (N, C, H, W) to (N, C·H·W) without moving data.
type qflatten struct {
	label string
	buf   int
}

func (f *qflatten) name() string { return f.label }

func (f *qflatten) forward(x *qtensor, s *scratch) (*qtensor, error) {
	if len(x.shape) < 2 {
		return nil, fmt.Errorf("%w: flatten input %v", tensor.ErrShape, x.shape)
	}
	n := x.shape[0]
	return s.actView(f.buf, x, n, x.len()/n), nil
}

// qresidual joins two lowered branch chains with a requantizing integer
// add: each branch output rescales onto the block's output grid through
// its own fixed-point multiplier (M_b = S_b/S_y), and the block ReLU is
// the clamp at the output zero point.
type qresidual struct {
	label    string
	buf      int
	main     []qlayer
	shortcut []qlayer // nil = identity
	mainZ    int32
	shortZ   int32
	out      grid
	m0Main   int32
	rshMain  int32
	m0Short  int32
	rshShort int32
	relu     bool
}

func (r *qresidual) name() string { return r.label }

func (r *qresidual) sizeBytes() int {
	total := 0
	for _, l := range append(append([]qlayer{}, r.main...), r.shortcut...) {
		if s, ok := l.(interface{ sizeBytes() int }); ok {
			total += s.sizeBytes()
		}
	}
	return total
}

func (r *qresidual) forward(x *qtensor, s *scratch) (*qtensor, error) {
	my := x
	var err error
	for _, l := range r.main {
		my, err = l.forward(my, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.name(), err)
		}
	}
	sy := x
	for _, l := range r.shortcut {
		sy, err = l.forward(sy, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.name(), err)
		}
	}
	if my.len() != sy.len() {
		return nil, fmt.Errorf("%w: residual branches %v vs %v", tensor.ErrShape, my.shape, sy.shape)
	}
	out := s.act(r.buf, my.shape...)
	out.g = r.out
	n := my.shape[0]
	per := my.len() / n
	if tensor.MaxWorkers() == 1 {
		for i := 0; i < n; i++ {
			r.addRow(my.data, sy.data, out.data, per, i)
		}
		return out, nil
	}
	tensor.ParallelFor(n, func(i int) { r.addRow(my.data, sy.data, out.data, per, i) })
	return out, nil
}

// addRow rescales and sums one sample's branch payloads onto the output
// grid.
func (r *qresidual) addRow(main, short, dst []uint8, per, i int) {
	ms := main[i*per : (i+1)*per]
	ss := short[i*per : (i+1)*per]
	row := dst[i*per : (i+1)*per]
	lo := int32(0)
	if r.relu {
		lo = r.out.zero
	}
	zy := int64(r.out.zero)
	zm, zs := int64(r.mainZ), int64(r.shortZ)
	for j := range row {
		y := requantize(int64(ms[j])-zm, r.m0Main, r.rshMain) +
			requantize(int64(ss[j])-zs, r.m0Short, r.rshShort) + zy
		row[j] = clampU8(y, lo)
	}
}
