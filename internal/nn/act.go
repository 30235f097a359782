package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ReLU applies max(0, x) element-wise. With a positive Cap it becomes the
// clipped variant (ReLU6 for Cap = 6) used by MobileNetV2. Backward reads
// the layer's own output, so no mask is kept.
type ReLU struct {
	name string
	cap  float32        // 0 = unbounded
	y    *tensor.Tensor // output of the last Forward, nil once Backward consumed it

	outA arenaTensor
	dxA  arenaTensor
}

// NewReLU returns an unbounded rectifier.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// NewReLU6 returns the clipped rectifier min(max(0,x),6).
func NewReLU6(name string) *ReLU { return &ReLU{name: name, cap: 6} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	r.y = r.outA.like(x)
	rectify(r.y.Data(), x.Data(), r.cap)
	return r.y, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if r.y == nil {
		return nil, fmt.Errorf("relu %q: backward before forward", r.name)
	}
	if dout.Len() != r.y.Len() {
		return nil, fmt.Errorf("relu %q: %w: dout %v vs cached %d elems", r.name, tensor.ErrShape, dout.Shape(), r.y.Len())
	}
	dx := r.dxA.like(dout)
	rectifyGrad(dx.Data(), dout.Data(), r.y.Data(), r.cap)
	r.y = nil
	return dx, nil
}

// rectBlock is the element count of one rectifier or residual-add task:
// 64 KB of output, so a batch-sized activation splits across the pool and
// a small one runs inline.
const rectBlock = 1 << 14

// rectify writes y = max(x, 0), clipped at limit when limit > 0, without
// a data-dependent branch (the sign of an activation is a coin flip to the
// predictor). y may alias x.
func rectify(y, x []float32, limit float32) {
	if limit <= 0 {
		limit = float32(math.Inf(1))
	}
	forChunks(rectBlocks(len(x)), rectJob{y: y, x: x, limit: limit})
}

// rectBlocks is the rectBlock count of an n-element pass.
func rectBlocks(n int) int { return (n + rectBlock - 1) / rectBlock }

// rectJob is one block of rectify.
type rectJob struct {
	y, x  []float32
	limit float32
}

func (r rectJob) run(b int) {
	lo, hi := b*rectBlock, min((b+1)*rectBlock, len(r.x))
	ys := r.y[lo:hi]
	for i, v := range r.x[lo:hi] {
		ys[i] = min(max(v, 0), r.limit)
	}
}

// rectifyGrad writes dx = dout where the rectifier output y lies in the
// pass-through region (0 < y, and y < limit when limit > 0) and zero
// elsewhere. y is never negative, so its bit pattern orders like an
// integer: the mask is all ones when bits(y) ≠ 0 and bits(y) < bits(limit),
// and the select is a bitwise and. dx may alias dout.
func rectifyGrad(dx, dout, y []float32, limit float32) {
	top := int32(math.MaxInt32) // above every non-NaN pattern: no clipping
	if limit > 0 {
		top = int32(math.Float32bits(limit))
	}
	forChunks(rectBlocks(len(y)), rectGradJob{dx: dx, dout: dout, y: y, top: top})
}

// rectGradJob is one block of rectifyGrad.
type rectGradJob struct {
	dx, dout, y []float32
	top         int32
}

func (r rectGradJob) run(b int) {
	lo, hi := b*rectBlock, min((b+1)*rectBlock, len(r.y))
	ds, gs := r.dx[lo:hi], r.dout[lo:hi]
	for i, v := range r.y[lo:hi] {
		u := int32(math.Float32bits(v))
		mask := uint32((-u & (u - r.top)) >> 31) // u > 0 and u < top
		ds[i] = math.Float32frombits(math.Float32bits(gs[i]) & mask)
	}
}

// addInto writes y = a + b, rectified (max(·, 0)) when relu is set:
// Residual's sum and output activation in one pass.
func addInto(y, a, b []float32, relu bool) {
	forChunks(rectBlocks(len(a)), addJob{y: y, a: a, b: b, relu: relu})
}

// addJob is one block of addInto.
type addJob struct {
	y, a, b []float32
	relu    bool
}

func (j addJob) run(blk int) {
	lo, hi := blk*rectBlock, min((blk+1)*rectBlock, len(j.a))
	ys, bs := j.y[lo:hi], j.b[lo:hi]
	if j.relu {
		for i, v := range j.a[lo:hi] {
			ys[i] = max(v+bs[i], 0)
		}
		return
	}
	for i, v := range j.a[lo:hi] {
		ys[i] = v + bs[i]
	}
}
