package data

import (
	"fmt"

	"repro/internal/tensor"
)

// Augmented wraps a dataset with the paper's CIFAR training augmentation
// (§IV): pad Pad pixels on each side, take a random Size×Size crop of the
// padded image or of its horizontal flip. The wrapper is stateful: each
// Sample draws from the RNG given to NewAugmented, so runs sharing one
// Augmented shift each other's crops, and concurrent Sample calls race.
type Augmented struct {
	base Dataset
	pad  int
	size int
	rng  *tensor.RNG
}

// NewAugmented wraps base with pad-and-crop plus random flip augmentation.
// size is the output spatial size (the crop window).
func NewAugmented(base Dataset, pad, size int, rng *tensor.RNG) (*Augmented, error) {
	if pad < 0 || size <= 0 {
		return nil, fmt.Errorf("data: invalid augmentation pad=%d size=%d", pad, size)
	}
	if rng == nil {
		return nil, fmt.Errorf("data: augmentation requires an RNG")
	}
	return &Augmented{base: base, pad: pad, size: size, rng: rng}, nil
}

// Len implements Dataset.
func (a *Augmented) Len() int { return a.base.Len() }

// NumClasses implements Dataset.
func (a *Augmented) NumClasses() int { return a.base.NumClasses() }

// Sample implements Dataset: it returns a freshly augmented view of the
// underlying image. Consecutive calls with the same index differ.
func (a *Augmented) Sample(i int) (*tensor.Tensor, int) {
	img, label := a.base.Sample(i)
	out, err := a.apply(img)
	if err != nil {
		// Geometry errors are programmer errors (mismatched base size);
		// surface them loudly rather than training on silent garbage.
		panic(fmt.Sprintf("data: augmentation failed: %v", err))
	}
	return out, label
}

// apply draws the crop offset (y, then x) and the flip and writes the crop
// of the virtually padded image — or of its mirror — in one offset copy:
// rows and columns that fall in the padding stay zero.
func (a *Augmented) apply(img *tensor.Tensor) (*tensor.Tensor, error) {
	if img.Rank() != 3 {
		return nil, fmt.Errorf("%w: augmentation wants a rank-3 image, got %v", tensor.ErrShape, img.Shape())
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	maxOff := h + 2*a.pad - a.size
	if maxOff < 0 {
		return nil, fmt.Errorf("crop size %d exceeds padded size %d", a.size, h+2*a.pad)
	}
	y, x := 0, 0
	if maxOff > 0 {
		y = a.rng.Intn(maxOff + 1)
		x = a.rng.Intn(maxOff + 1)
	}
	if x+a.size > w+2*a.pad {
		return nil, fmt.Errorf("%w: crop (%d,%d,%d,%d) out of bounds for padded %dx%d", tensor.ErrShape, y, x, a.size, a.size, h+2*a.pad, w+2*a.pad)
	}
	flip := a.rng.Float64() < 0.5
	out := tensor.New(c, a.size, a.size)
	src, dst := img.Data(), out.Data()
	// Output columns [x0, x1) of an unflipped row read source columns
	// [x0+x-pad, x1+x-pad); a flipped row mirrors the same span.
	x0, x1 := max(a.pad-x, 0), min(w+a.pad-x, a.size)
	for ch := 0; ch < c; ch++ {
		for yy := max(a.pad-y, 0); yy < min(h+a.pad-y, a.size); yy++ {
			srow := src[(ch*h+yy+y-a.pad)*w+x0+x-a.pad:][:x1-x0]
			drow := dst[(ch*a.size+yy)*a.size : (ch*a.size+yy+1)*a.size]
			if !flip {
				copy(drow[x0:x1], srow)
				continue
			}
			for i, v := range srow {
				drow[a.size-1-x0-i] = v
			}
		}
	}
	return out, nil
}
