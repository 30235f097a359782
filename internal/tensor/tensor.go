// Package tensor implements a small, deterministic float32 tensor library
// used as the numerical substrate for the APT reproduction. Tensors are
// dense, row-major and CPU-resident; convolutional data uses NCHW layout.
//
// The package is intentionally minimal: it provides exactly the operations
// the neural-network layers in internal/nn need (element-wise arithmetic,
// GEMM, im2col/col2im, padding/cropping/flipping, reductions) plus a
// deterministic random number generator so every experiment in the
// repository is reproducible bit-for-bit from a seed.
package tensor

import (
	"errors"
	"fmt"
	"strings"
)

// ErrShape is returned (wrapped) by operations whose operand shapes are
// incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// tensor; use New or FromSlice to create usable instances.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. New panics only on
// a programmer error (non-positive dimension); all data-dependent failure
// modes return errors from the respective operations instead.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it is the caller's responsibility not to alias it
// unexpectedly. An error is returned when the element count does not match
// the shape.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("%w: invalid dimension %d in shape %v", ErrShape, d, shape)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: shape %v wants %d elements, slice has %d", ErrShape, shape, n, len(data))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}, nil
}

// MustFromSlice is FromSlice for statically-known-correct literals, used in
// tests and examples.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return &Tensor{shape: s, data: d}
}

// Reshape returns a view of the same data with a new shape. The element
// count must be preserved.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("%w: invalid dimension %d", ErrShape, d)
		}
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: cannot reshape %v (%d elems) to %v (%d elems)", ErrShape, t.shape, len(t.data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to zero in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// CopyFrom copies o's data into t. Shapes must match.
func (t *Tensor) CopyFrom(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("%w: copy %v into %v", ErrShape, o.shape, t.shape)
	}
	copy(t.data, o.data)
	return nil
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 8 {
		fmt.Fprintf(&b, "%v", t.data)
	}
	return b.String()
}
