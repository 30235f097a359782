package infer

import (
	"math"
	"time"

	"repro/internal/tensor"
)

// grid is an affine uint8 quantization grid: r = scale·(q − zero).
type grid struct {
	scale float32
	zero  int32
}

// gridFor derives the uint8 grid covering [min, max]. Both bounds are
// clamped to include 0, so zero is always exactly representable (padding
// and ReLU floors must quantize exactly and the zero point must fit in a
// uint8 even for ranges observed entirely on one side of 0).
func gridFor(min, max float32) grid {
	if min > 0 {
		min = 0
	}
	if max < 0 {
		max = 0
	}
	if max <= min {
		max = min + 1e-3
	}
	scale := (max - min) / 255
	zero := int32(math.Round(float64(-min) / float64(scale)))
	return grid{scale: scale, zero: zero}
}

// quantize maps a float value onto the grid. NaN pins to the zero point
// (the grid's representation of 0.0): uint8(NaN) is platform-defined in
// Go, and a serving tier fed a hostile payload must stay deterministic
// across amd64 and the portable arm64 kernels, not inherit whatever the
// hardware's conversion does.
func (g grid) quantize(v float32) uint8 {
	x := math.Round(float64(v)/float64(g.scale)) + float64(g.zero)
	switch {
	case math.IsNaN(x):
		x = float64(g.zero)
	case x < 0:
		x = 0
	case x > 255:
		x = 255
	}
	return uint8(x)
}

// dequantize restores the float value of a grid point.
func (g grid) dequantize(q uint8) float32 {
	return g.scale * float32(int32(q)-g.zero)
}

// qtensor is an affine-quantized activation: uint8 payload on a grid,
// NCHW. Inside the engine every qtensor is a view into a scratch slot;
// shape and data are reused across Forward calls.
type qtensor struct {
	shape []int
	data  []uint8
	g     grid
}

func (q *qtensor) len() int { return len(q.data) }

func (q *qtensor) dim(i int) int { return q.shape[i] }

// quadPad is the spare capacity kept past every activation payload: the
// packed integer GEMM consumes operand rows in 4-tap quads and may read
// up to 3 bytes past the final row's features (multiplying zero weights),
// so layers can re-slice a payload to the kernel's padded span without
// copying. Mirrors tensor.PackedI8.PaddedK.
const quadPad = 3

// setShape resizes the qtensor in place: the shape slice is rewritten and
// the payload grown (never shrunk) to the element count, always keeping
// quadPad spare bytes of capacity for the packed-GEMM re-slice. Contents
// are stale; callers fully overwrite them.
func (q *qtensor) setShape(shape ...int) {
	q.shape = append(q.shape[:0], shape...)
	n := 1
	for _, d := range shape {
		n *= d
	}
	if cap(q.data) < n+quadPad {
		q.data = make([]uint8, n, n+quadPad)
	}
	q.data = q.data[:n]
}

// quantizeInto fills q with t quantized onto g.
func quantizeInto(q *qtensor, t *tensor.Tensor, g grid) {
	q.setShape(t.Shape()...)
	q.g = g
	for i, v := range t.Data() {
		q.data[i] = g.quantize(v)
	}
}

// quantizeNew allocates a fresh qtensor for t on the [min, max] grid
// (test/calibration convenience; the engine path reuses scratch slots).
func quantizeNew(t *tensor.Tensor, min, max float32) *qtensor {
	q := &qtensor{}
	quantizeInto(q, t, gridFor(min, max))
	return q
}

// dequantize restores the float view as a fresh tensor.
func (q *qtensor) dequantize() *tensor.Tensor {
	out := tensor.New(q.shape...)
	d := out.Data()
	for i, v := range q.data {
		d[i] = q.g.dequantize(v)
	}
	return out
}

// scratch is the workspace one Forward call runs in: an activation slot
// per compiled layer buffer plus shared gather-lane and accumulator arenas.
// Engines keep a free list of scratches (see Engine.lease); a scratch is
// only ever touched by the goroutine that leased it, which is what makes
// concurrent Forward calls on one Engine safe — the compiled layers
// themselves are immutable after Compile.
type scratch struct {
	acts []qtensor
	cols []uint8
	acc  []int32
	// prof, when non-nil, makes the conv/linear stages accumulate
	// per-stage wall time into it (ForwardProfile sets it for the call).
	prof *ForwardProfile
}

func newScratch(nbuf int) *scratch {
	return &scratch{acts: make([]qtensor, nbuf)}
}

// ForwardProfile is the per-stage wall-time split of one profiled
// forward pass: the im2col/gather packing work, the packed GEMM, the
// requantization, and everything else (quantize, pooling, residual adds,
// dequantize).
type ForwardProfile struct {
	Im2col  time.Duration
	GEMM    time.Duration
	Requant time.Duration
	Other   time.Duration
	Total   time.Duration
}

// Profiled stage identifiers for profSpan.
const (
	stageIm2col = iota
	stageGEMM
	stageRequant
)

// profClock samples the clock only on profiled calls; the hot path pays
// one nil check.
func profClock(s *scratch) time.Time {
	if s.prof == nil {
		return time.Time{}
	}
	return time.Now()
}

// profSpan accrues the elapsed span to a profile stage.
func profSpan(s *scratch, stage int, t0 time.Time) {
	if s.prof == nil {
		return
	}
	d := time.Since(t0)
	switch stage {
	case stageIm2col:
		s.prof.Im2col += d
	case stageGEMM:
		s.prof.GEMM += d
	case stageRequant:
		s.prof.Requant += d
	}
}

// act returns slot id shaped as requested (payload grown, contents
// stale).
func (s *scratch) act(id int, shape ...int) *qtensor {
	q := &s.acts[id]
	q.setShape(shape...)
	return q
}

// actView returns slot id as a reshaped alias of src's payload (used by
// flatten, which moves no data).
func (s *scratch) actView(id int, src *qtensor, shape ...int) *qtensor {
	q := &s.acts[id]
	q.shape = append(q.shape[:0], shape...)
	q.data = src.data
	q.g = src.g
	return q
}

// colsBuf returns the shared conv gather-lane arena grown to n bytes.
func (s *scratch) colsBuf(n int) []uint8 {
	if cap(s.cols) < n {
		s.cols = make([]uint8, n)
	}
	return s.cols[:n]
}

// accBuf returns the shared int32 accumulator arena grown to n elements.
func (s *scratch) accBuf(n int) []int32 {
	if cap(s.acc) < n {
		s.acc = make([]int32, n)
	}
	return s.acc[:n]
}
