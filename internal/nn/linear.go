package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Linear is a fully-connected layer y = x·Wᵀ + b over (N, in) batches.
// Output, input-gradient and weight-gradient buffers are scratch arenas
// reused across steps (see the arena contract in arena.go).
type Linear struct {
	name   string
	in     int
	out    int
	weight *Param // (out, in)
	bias   *Param // (out), nil when disabled
	x      *tensor.Tensor

	outA arenaTensor // (N, out)
	dxA  arenaTensor // (N, in)
	dwA  arenaTensor // (out, in)

	// pb is the packed-operand arena of every product (forward x·Wᵀ,
	// backward doutᵀ·x and dout·W): each call repacks it — the weights
	// change every optimizer step, so the panels cannot be cached across
	// steps — and only the storage is reused.
	pb tensor.PackedF32
}

// NewLinear constructs a fully-connected layer with He-normal weights.
func NewLinear(name string, in, out int, bias bool, rng *tensor.RNG) (*Linear, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("linear %q: %w: dims (%d,%d)", name, tensor.ErrShape, in, out)
	}
	w := tensor.New(out, in)
	w.FillHeNormal(rng, in)
	l := &Linear{name: name, in: in, out: out, weight: NewParam(name+".weight", w)}
	if bias {
		l.bias = NewParam(name+".bias", tensor.New(out))
	}
	return l, nil
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Params implements Layer.
func (l *Linear) Params() []*Param {
	if l.bias == nil {
		return []*Param{l.weight}
	}
	return []*Param{l.weight, l.bias}
}

// MACs implements Coster.
func (l *Linear) MACs() int64 { return int64(l.in) * int64(l.out) }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 2 || x.Dim(1) != l.in {
		return nil, fmt.Errorf("linear %q: %w: input %v, want (N,%d)", l.name, tensor.ErrShape, x.Shape(), l.in)
	}
	l.x = x
	n := x.Dim(0)
	out := l.outA.get(n, l.out)
	// (N,in)·(out,in)ᵀ on the packed micro-kernels.
	if err := l.pb.PackBT(l.weight.Value.Data(), l.in, l.out); err != nil {
		return nil, fmt.Errorf("linear %q: %w", l.name, err)
	}
	if err := tensor.MatMulF32PackedInto(out.Data(), x.Data(), &l.pb, n, l.in); err != nil {
		return nil, fmt.Errorf("linear %q: %w", l.name, err)
	}
	if l.bias != nil {
		bd := l.bias.Value.Data()
		od := out.Data()
		for i := 0; i < n; i++ {
			row := od[i*l.out : (i+1)*l.out]
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
	return out, nil
}

// Backward implements Layer.
func (l *Linear) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if l.x == nil {
		return nil, fmt.Errorf("linear %q: backward before forward", l.name)
	}
	if dout.Rank() != 2 || dout.Dim(1) != l.out || dout.Dim(0) != l.x.Dim(0) {
		return nil, fmt.Errorf("linear %q: %w: dout %v", l.name, tensor.ErrShape, dout.Shape())
	}
	// dW = doutᵀ · x → (out, in)
	dw := l.dwA.get(l.out, l.in)
	if err := tensor.MatMulTransAPackedInto(dw, dout, l.x, &l.pb); err != nil {
		return nil, fmt.Errorf("linear %q: %w", l.name, err)
	}
	if err := l.weight.Grad.Add(dw); err != nil {
		return nil, fmt.Errorf("linear %q: %w", l.name, err)
	}
	if l.bias != nil {
		n := dout.Dim(0)
		gb := l.bias.Grad.Data()
		dd := dout.Data()
		for i := 0; i < n; i++ {
			row := dd[i*l.out : (i+1)*l.out]
			for j, v := range row {
				gb[j] += v
			}
		}
	}
	// dx = dout · W → (N, in)
	dx := l.dxA.get(dout.Dim(0), l.in)
	if err := l.pb.PackB(l.weight.Value.Data(), l.out, l.in); err != nil {
		return nil, fmt.Errorf("linear %q: %w", l.name, err)
	}
	if err := tensor.MatMulF32PackedInto(dx.Data(), dout.Data(), &l.pb, dout.Dim(0), l.out); err != nil {
		return nil, fmt.Errorf("linear %q: %w", l.name, err)
	}
	l.x = nil
	return dx, nil
}
