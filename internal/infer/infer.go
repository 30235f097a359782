// Package infer compiles a trained float model into an integer-only
// inference engine, completing the edge-deployment story of the paper's
// quantization scheme: §III adopts the affine map r = S(q − Z) from Jacob
// et al. (CVPR 2018) precisely because it admits integer-arithmetic-only
// inference, and a model trained with APT is deployed this way.
//
// Compilation performs the standard pipeline:
//
//  1. batch-norm folding — each Conv→BN pair collapses into one
//     convolution with rescaled weights and a bias;
//  2. range calibration — a calibration batch runs through the float
//     graph recording each activation tensor's min/max, fixing every
//     quantization grid at compile time;
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
// (including the clipped ReLU6 variant, whose cap folds into the
// calibration clamp), MaxPool2D, GlobalAvgPool, Flatten, Linear,
// Residual.
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
	// Calibration provides representative inputs (N, C, H, W); the more
	// representative, the tighter the activation grids.
	Calibration *tensor.Tensor
	// PerTensorWeights falls back to one symmetric scale per weight
	// tensor instead of the default per-output-channel scales. It exists
	// as an ablation knob (per-channel is strictly tighter); see
	// TestPerChannelScalesTightenAgreement.
	PerTensorWeights bool
}

// Compile folds, calibrates and lowers a float model. The model is not
// modified.
func Compile(m *models.Model, cfg Config) (*Engine, error) {
	if cfg.Calibration == nil || cfg.Calibration.Rank() != 4 {
		return nil, fmt.Errorf("infer: calibration batch (N,C,H,W) is required")
	}
	stages, err := foldSequential(m.Layers())
	if err != nil {
		return nil, err
	}
	// Calibration pass: record per-stage output ranges on the float graph.
	x := cfg.Calibration
	inMin, inMax := x.MinMax()
	if _, err := calibrateChain(stages, x); err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}

	nbuf := 0
	nextID := func() int { id := nbuf; nbuf++; return id }
	nextID() // slot 0: the quantized input
	in := gridFor(inMin, inMax)
	layers, _, err := lowerChain(stages, in, cfg, nextID)
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
		nbuf: nbuf,
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
	p := &ForwardProfile{}
	s.prof = p
	t0 := time.Now()
	out, err := e.run(x, s)
	p.Total = time.Since(t0)
	s.prof = nil
	if err != nil {
		return nil, nil, err
	}
	p.Other = p.Total - p.Im2col - p.GEMM - p.Requant
	if p.Other < 0 {
		p.Other = 0
	}
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
// exact widening kernel instead (see tensor.PackedI8.Saturating).
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

// conv runs the band-gather lowering: the driver gathers receptive
// fields into cache-resident per-worker lanes (a few tens of KB at the
// head of the cols arena) and runs the packed kernels against them in
// place — no patch matrix is materialized. Out-of-bounds taps gather as
// Z_x, which represents exact float zero, so the per-channel correction
// term is position-independent.
func (q *qaffine) conv(x *qtensor, s *scratch) (*qtensor, error) {
	g := q.plan.Geom()
	if len(x.shape) != 4 || x.shape[1] != g.InC || x.shape[2] != g.InH || x.shape[3] != g.InW {
		return nil, fmt.Errorf("input %v does not match geometry %+v", x.shape, g)
	}
	n := x.dim(0)
	oh, ow := g.OutHW()
	ns := n * oh * ow
	acc := s.accBuf(q.outC * ns)
	tasks := n * q.plan.Bands()
	lanes := tensor.MaxWorkers()
	if lanes > tasks {
		lanes = tasks
	}
	work := s.colsBuf(lanes * q.plan.BandLen())
	if s.prof != nil {
		// Profiled forward: run the band tasks serially so gather and GEMM
		// time attribute separately (the fused driver otherwise interleaves
		// them per task across workers).
		buf := work[:q.plan.BandLen()]
		for t := 0; t < tasks; t++ {
			t0 := profClock(s)
			m := q.plan.GatherBandInto(buf, x.data, uint8(q.in.zero), t)
			profSpan(s, stageIm2col, t0)
			t0 = profClock(s)
			q.plan.GEMMBand(acc, buf, q.packed, t, m)
			profSpan(s, stageGEMM, t0)
		}
		return q.requantConv(acc, n, oh, ow, s)
	}
	if err := tensor.ConvU8I8ImplicitInto(acc, x.data, n, q.packed, q.plan, uint8(q.in.zero), work); err != nil {
		return nil, err
	}
	return q.requantConv(acc, n, oh, ow, s)
}

// requantConv requantizes the position-major accumulator into the
// layer's NCHW output slot.
func (q *qaffine) requantConv(acc []int32, n, oh, ow int, s *scratch) (*qtensor, error) {
	sp := oh * ow
	out := s.act(q.buf, n, q.outC, oh, ow)
	out.g = q.out
	chunks := (sp + requantChunk - 1) / requantChunk
	t0 := profClock(s)
	if tensor.MaxWorkers() == 1 || s.prof != nil {
		for t := 0; t < n*chunks; t++ {
			q.requantPositions(acc, out.data, sp, chunks, t)
		}
		profSpan(s, stageRequant, t0)
		return out, nil
	}
	tensor.ParallelFor(n*chunks, func(t int) { q.requantPositions(acc, out.data, sp, chunks, t) })
	profSpan(s, stageRequant, t0)
	return out, nil
}

// requantChunk is the position-tile width of the conv requantization.
// The accumulator is position-major (row per output position, column per
// channel), the output NCHW (plane per channel): requantizing a whole
// channel plane at once would re-stream the entire accumulator per
// channel (each int32 read strided by outC), so instead each task
// requantizes every channel of a 256-position tile — the tile's
// accumulator rows (256·outC int32) stay in L1 while all outC planes
// consume them.
const requantChunk = 256

// requantPositions requantizes all channels of one sample's position
// tile into the NCHW output payload: the accumulator rows for positions
// [p0, p1) feed the transposing vector kernel, which emits each channel's
// contiguous plane run (tensor.RequantQ31Transpose pins the rounding
// contract shared with the scalar requantize).
func (q *qaffine) requantPositions(acc []int32, dst []uint8, sp, chunks, t int) {
	i, ch := t/chunks, t%chunks
	p0 := ch * requantChunk
	p1 := p0 + requantChunk
	if p1 > sp {
		p1 = sp
	}
	lo := int32(0)
	if q.relu {
		lo = q.out.zero
	}
	tensor.RequantQ31Transpose(dst[i*q.outC*sp+p0:], acc[(i*sp+p0)*q.outC:],
		q.m0, q.rsh, q.corr, q.out.zero, lo, p1-p0, q.outC, q.outC, sp)
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
	lo := int32(0)
	if q.relu {
		lo = q.out.zero
	}
	t0 = profClock(s)
	tensor.RequantQ31Rows(out.data, acc, q.m0, q.rsh, q.corr, q.out.zero, lo,
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
