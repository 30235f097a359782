package data

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// The three-call augmentation (pad, crop, flip — three tensors per sample)
// that Augmented.apply replaced with one offset copy, kept as its oracle.

// pad2D zero-pads a (C, H, W) image by p pixels on each spatial side.
func pad2D(img *tensor.Tensor, p int) (*tensor.Tensor, error) {
	if img.Rank() != 3 {
		return nil, fmt.Errorf("%w: pad2d wants rank-3 image, got %v", tensor.ErrShape, img.Shape())
	}
	if p < 0 {
		return nil, fmt.Errorf("%w: negative padding %d", tensor.ErrShape, p)
	}
	if p == 0 {
		return img.Clone(), nil
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := tensor.New(c, h+2*p, w+2*p)
	ow := w + 2*p
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			srcOff := (ch*h + y) * w
			dstOff := (ch*(h+2*p)+y+p)*ow + p
			copy(out.Data()[dstOff:dstOff+w], img.Data()[srcOff:srcOff+w])
		}
	}
	return out, nil
}

// crop2D extracts an (C, ch, cw) window whose top-left corner is (y, x)
// from a (C, H, W) image.
func crop2D(img *tensor.Tensor, y, x, ch, cw int) (*tensor.Tensor, error) {
	if img.Rank() != 3 {
		return nil, fmt.Errorf("%w: crop2d wants rank-3 image, got %v", tensor.ErrShape, img.Shape())
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	if y < 0 || x < 0 || ch <= 0 || cw <= 0 || y+ch > h || x+cw > w {
		return nil, fmt.Errorf("%w: crop (%d,%d,%d,%d) out of bounds for %v", tensor.ErrShape, y, x, ch, cw, img.Shape())
	}
	out := tensor.New(c, ch, cw)
	for cc := 0; cc < c; cc++ {
		for yy := 0; yy < ch; yy++ {
			srcOff := (cc*h+y+yy)*w + x
			dstOff := (cc*ch + yy) * cw
			copy(out.Data()[dstOff:dstOff+cw], img.Data()[srcOff:srcOff+cw])
		}
	}
	return out, nil
}

// flipH mirrors a (C, H, W) image horizontally, returning a new tensor.
func flipH(img *tensor.Tensor) (*tensor.Tensor, error) {
	if img.Rank() != 3 {
		return nil, fmt.Errorf("%w: fliph wants rank-3 image, got %v", tensor.ErrShape, img.Shape())
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := tensor.New(c, h, w)
	for cc := 0; cc < c; cc++ {
		for y := 0; y < h; y++ {
			off := (cc*h + y) * w
			for x := 0; x < w; x++ {
				out.Data()[off+x] = img.Data()[off+w-1-x]
			}
		}
	}
	return out, nil
}

// applyRef is Augmented.apply as the three-call composition, drawing from
// rng in the same order (y, x, flip).
func applyRef(img *tensor.Tensor, pad, size int, rng *tensor.RNG) (*tensor.Tensor, error) {
	padded, err := pad2D(img, pad)
	if err != nil {
		return nil, err
	}
	maxOff := padded.Dim(1) - size
	if maxOff < 0 {
		return nil, fmt.Errorf("crop size %d exceeds padded size %d", size, padded.Dim(1))
	}
	y, x := 0, 0
	if maxOff > 0 {
		y = rng.Intn(maxOff + 1)
		x = rng.Intn(maxOff + 1)
	}
	crop, err := crop2D(padded, y, x, size, size)
	if err != nil {
		return nil, err
	}
	if rng.Float64() < 0.5 {
		return flipH(crop)
	}
	return crop, nil
}

func TestPadCropFlip(t *testing.T) {
	img := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	padded, err := pad2D(img, 1)
	if err != nil {
		t.Fatalf("pad2D: %v", err)
	}
	if got := padded.Shape(); got[1] != 4 || got[2] != 4 {
		t.Fatalf("padded shape %v, want (1,4,4)", got)
	}
	if padded.At(0, 0, 0) != 0 || padded.At(0, 1, 1) != 1 || padded.At(0, 2, 2) != 4 {
		t.Error("pad2D misplaced content")
	}
	crop, err := crop2D(padded, 1, 1, 2, 2)
	if err != nil {
		t.Fatalf("crop2D: %v", err)
	}
	for i := range img.Data() {
		if crop.Data()[i] != img.Data()[i] {
			t.Fatal("crop2D(pad(x)) center != x")
		}
	}
	flipped, err := flipH(img)
	if err != nil {
		t.Fatalf("flipH: %v", err)
	}
	want := []float32{2, 1, 4, 3}
	for i, v := range flipped.Data() {
		if v != want[i] {
			t.Errorf("flipH[%d] = %v, want %v", i, v, want[i])
		}
	}
	dbl, err := flipH(flipped)
	if err != nil {
		t.Fatalf("flipH: %v", err)
	}
	for i := range img.Data() {
		if dbl.Data()[i] != img.Data()[i] {
			t.Fatal("flipH is not an involution")
		}
	}
	if _, err := crop2D(img, 1, 1, 3, 3); !errors.Is(err, tensor.ErrShape) {
		t.Errorf("out-of-bounds crop err = %v, want tensor.ErrShape", err)
	}
	if _, err := pad2D(img, -1); !errors.Is(err, tensor.ErrShape) {
		t.Errorf("negative pad err = %v, want tensor.ErrShape", err)
	}
}

// TestAugmentedMatchesComposition pins the sample stream: for the same RNG
// seed the one-copy crop yields, draw for draw, the bytes of the
// pad → crop → flip composition — padded borders, crops smaller than the
// image, no padding at all, and a crop the padded image cannot hold.
func TestAugmentedMatchesComposition(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 3, Train: 6, Test: 3, Size: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ pad, size int }{{2, 10}, {0, 10}, {0, 7}, {3, 5}, {4, 18}, {1, 13}} {
		aug, err := NewAugmented(tr, c.pad, c.size, tensor.NewRNG(77))
		if err != nil {
			t.Fatal(err)
		}
		ref := tensor.NewRNG(77)
		for draw := 0; draw < 200; draw++ {
			img, _ := tr.Sample(draw % tr.Len())
			want, wantErr := applyRef(img, c.pad, c.size, ref)
			got, gotErr := aug.apply(img)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("pad %d size %d: err %v, composition err %v", c.pad, c.size, gotErr, wantErr)
			}
			if wantErr != nil {
				break
			}
			if fmt.Sprint(got.Shape()) != fmt.Sprint(want.Shape()) {
				t.Fatalf("pad %d size %d: shape %v, want %v", c.pad, c.size, got.Shape(), want.Shape())
			}
			for i, v := range want.Data() {
				if got.Data()[i] != v {
					t.Fatalf("pad %d size %d draw %d: elem %d = %v, want %v", c.pad, c.size, draw, i, got.Data()[i], v)
				}
			}
		}
	}
}

// TestAugmentedFreshRestartsStream: a Fresh view draws the crops the
// wrapper drew when it was built, however far the wrapper's own stream
// has moved, and drawing from the view leaves the wrapper's stream where
// it was.
func TestAugmentedFreshRestartsStream(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 3, Train: 6, Test: 3, Size: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := NewAugmented(tr, 2, 10, tensor.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	var first []float32
	for i := 0; i < tr.Len(); i++ {
		img, _ := aug.Sample(i)
		first = append(first, img.Data()...)
	}
	moved := aug.rng.State()
	fresh := aug.Fresh()
	var again []float32
	for i := 0; i < tr.Len(); i++ {
		img, _ := fresh.Sample(i)
		again = append(again, img.Data()...)
	}
	for i, v := range first {
		if again[i] != v {
			t.Fatalf("fresh view elem %d = %v, want %v (the built stream's draw)", i, again[i], v)
		}
	}
	if aug.rng.State() != moved {
		t.Error("drawing from the fresh view moved the wrapper's stream")
	}
}
