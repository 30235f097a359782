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

// dequantize restores the float value of a grid point.
func (g grid) dequantize(q uint8) float32 {
	return g.scale * float32(int32(q)-g.zero)
}

// qtensor is an affine-quantized activation: uint8 payload on a grid. A
// feature map is NHWC — shape (N, H, W, C), channels innermost — so a
// conv's GEMM rows and its int32 tile rows are both positions; a
// flattened or linear payload is (N, F). Inside the engine every qtensor
// is a view into a scratch slot; shape and data are reused across
// Forward calls.
type qtensor struct {
	shape []int
	data  []uint8
	g     grid
}

func (q *qtensor) len() int { return len(q.data) }

func (q *qtensor) dim(i int) int { return q.shape[i] }

// setShape resizes the qtensor in place: the shape slice is rewritten and
// the payload grown (never shrunk) to the element count, always keeping
// tensor.QuadPad spare bytes of capacity for the packed-GEMM re-slice, so
// layers re-slice a payload to the kernel's padded span without copying.
// Contents are stale; callers fully overwrite them.
func (q *qtensor) setShape(shape ...int) {
	q.shape = append(q.shape[:0], shape...)
	n := 1
	for _, d := range shape {
		n *= d
	}
	if cap(q.data) < n+tensor.QuadPad {
		q.data = make([]uint8, n, n+tensor.QuadPad)
	}
	q.data = q.data[:n]
}

// quantizeInto fills q with t quantized onto g; an (N, C, H, W) batch
// lands NHWC.
func quantizeInto(q *qtensor, t *tensor.Tensor, g grid) {
	q.g = g
	if t.Rank() != 4 {
		q.setShape(t.Shape()...)
		tensor.QuantizeNHWC(q.data, t.Data(), 1, 1, t.Len(), g.scale, g.zero)
		return
	}
	n, c, h, w := t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)
	q.setShape(n, h, w, c)
	tensor.QuantizeNHWC(q.data, t.Data(), n, c, h*w, g.scale, g.zero)
}

// dequantize restores the float view as a fresh tensor, NCHW for a
// feature map.
func (q *qtensor) dequantize() *tensor.Tensor {
	if len(q.shape) != 4 {
		out := tensor.New(q.shape...)
		d := out.Data()
		for i, v := range q.data {
			d[i] = q.g.dequantize(v)
		}
		return out
	}
	n, h, w, c := q.shape[0], q.shape[1], q.shape[2], q.shape[3]
	out := tensor.New(n, c, h, w)
	d := out.Data()
	for i := 0; i < n*c; i++ {
		in := q.data[i/c*h*w*c+i%c:]
		for p := range d[i*h*w : (i+1)*h*w] {
			d[i*h*w+p] = q.g.dequantize(in[p*c])
		}
	}
	return out
}

// scratch is the workspace one Forward call runs in: an activation slot
// per compiled layer buffer plus the conv strip-lane arena and the int32
// arena shared by the conv lane tiles and the linear accumulators.
// Engines keep a free list of scratches (see Engine.lease); a scratch is
// only ever touched by the goroutine that leased it, which is what makes
// concurrent Forward calls on one Engine safe — the compiled layers
// themselves are immutable after Compile.
type scratch struct {
	acts  []qtensor
	strip []uint8
	acc   []int32
	// prof, when non-nil, makes the conv/linear stages accumulate
	// per-stage wall time into it, indexed by the stage identifiers below
	// (ForwardProfile sets it for the call; the conv band driver reads it
	// as its phase clock, whose gather / compute / epilogue order they
	// match).
	prof *[3]time.Duration
}

func newScratch(nbuf int) *scratch {
	return &scratch{acts: make([]qtensor, nbuf)}
}

// ForwardProfile is the per-stage wall-time split of one profiled
// forward pass: the conv strip staging (Im2col, the stage an im2col
// gather used to be), the packed GEMM, the requantization, and
// everything else (quantize, pooling, residual adds, dequantize).
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
	if s.prof != nil {
		s.prof[stage] += time.Since(t0)
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

// accBuf returns the shared int32 accumulator arena grown to n elements.
func (s *scratch) accBuf(n int) []int32 {
	if cap(s.acc) < n {
		s.acc = make([]int32, n)
	}
	return s.acc[:n]
}
