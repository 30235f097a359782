package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Bit packing. The training path simulates quantization on the float grid
// (see the package comment), but the memory claim of the paper is about
// *storage*: a k-bit tensor occupies k bits per element. This file makes
// that concrete — it packs a quantized tensor's grid indices into a dense
// bit stream and restores them — and is used by the checkpoint format in
// internal/models, by the parameter server's bit-packed broadcast in
// internal/dist, and by tests that pin the simulated-size accounting to
// the real encoded size.
//
// The stream holds n k-bit grid indices LSB-first (index i occupies bits
// i·k … i·k+k−1, bit b of the stream being bit b%8 of byte b/8) in
// ⌈n·k/8⌉ bytes, the last byte's unused high bits zero.

// Packed is a bit-packed quantized tensor: ⌈n·k/8⌉ bytes of payload plus
// the affine grid needed to decode. The grid travels as its (Min, Max)
// endpoints so the decoder re-derives the same float64 level spacing the
// snap used — a packed tensor that was on its grid decodes bit-exactly.
type Packed struct {
	Bits  int
	Min   float32
	Max   float32
	Eps   float32 // float32 summary of the spacing; 0 marks a degenerate grid
	Count int
	Data  []byte
}

// Pack encodes t's elements as k-bit grid indices relative to st's grid.
// The tensor must already be snapped onto the grid (indices are derived
// by rounding; values off-grid round to the nearest level). Full-precision
// states cannot be packed. A degenerate grid (constant tensor, ε = 0)
// packs to an empty payload: every element equals Min.
func Pack(t *tensor.Tensor, st *State) (*Packed, error) {
	p := &Packed{}
	if err := PackInto(p, t, st); err != nil {
		return nil, err
	}
	return p, nil
}

// PackInto is Pack writing into p, whose payload capacity it reuses: every
// payload byte is overwritten, so p may hold any earlier record, and a
// payload slice kept from that record sees the new bytes.
func PackInto(p *Packed, t *tensor.Tensor, st *State) error {
	if st == nil || st.FullPrecision() {
		return fmt.Errorf("quant: cannot bit-pack a full-precision tensor")
	}
	k, n := st.Bits, t.Len()
	*p = Packed{Bits: k, Min: st.Min, Max: st.Max, Eps: st.Eps, Count: n, Data: p.Data[:0]}
	if st.Eps == 0 {
		return nil
	}
	if need := (n*k + 7) / 8; cap(p.Data) < need {
		p.Data = make([]byte, need)
	} else {
		p.Data = p.Data[:need]
	}
	levels := uint64(1)<<uint(k) - 1
	// The same float64 spacing SnapInPlace projects with, so snapped
	// values recover their level index exactly.
	eps := (float64(st.Max) - float64(st.Min)) / float64(levels)
	lo := float64(st.Min)
	var acc uint64 // pending stream bits, fill of them, fewer than 8 between elements
	fill, j := 0, 0
	for _, v := range t.Data() {
		q := math.Round((float64(v) - lo) / eps)
		if q < 0 {
			q = 0
		}
		if q > float64(levels) {
			q = float64(levels)
		}
		// A NaN survives both clamps and converts to an implementation-
		// defined integer; the mask keeps it to this element's k bits.
		acc |= (uint64(q) & levels) << uint(fill)
		for fill += k; fill >= 8; fill -= 8 {
			p.Data[j] = byte(acc)
			acc >>= 8
			j++
		}
	}
	if fill > 0 {
		p.Data[j] = byte(acc)
	}
	return nil
}

// Unpack decodes the payload back into a float tensor with the given
// shape. The element count must match.
func (p *Packed) Unpack(shape ...int) (*tensor.Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("quant: unpack shape %v has a non-positive dimension", shape)
		}
		n *= d
	}
	if n != p.Count {
		return nil, fmt.Errorf("quant: unpack shape %v wants %d elements, packed %d", shape, n, p.Count)
	}
	out := tensor.New(shape...)
	if err := p.UnpackInto(out.Data()); err != nil {
		return nil, err
	}
	return out, nil
}

// UnpackInto decodes the payload into dst, which must hold exactly Count
// elements. A record whose bitwidth, count or payload length cannot have
// come from Pack is rejected before anything is read.
func (p *Packed) UnpackInto(dst []float32) error {
	k := p.Bits
	if k < MinBits || k >= MaxBits || p.Count < 0 {
		return fmt.Errorf("quant: unpack: corrupt record (%d bits, count %d)", k, p.Count)
	}
	if len(dst) != p.Count {
		return fmt.Errorf("quant: unpack into %d elements, packed %d", len(dst), p.Count)
	}
	if p.Eps == 0 {
		for i := range dst {
			dst[i] = p.Min
		}
		return nil
	}
	if p.Count > len(p.Data)*8/k {
		return fmt.Errorf("quant: unpack: %d-byte payload too short for %d %d-bit indices", len(p.Data), p.Count, k)
	}
	levels := uint64(1)<<uint(k) - 1
	lo := float64(p.Min)
	eps := (float64(p.Max) - lo) / float64(levels)
	// Integrity check: the float32 Eps summary must agree with the grid
	// the endpoints span. A mismatch means a corrupt record — or one
	// written by the pre-Max format, whose gob decoding leaves Max = 0.
	if rel := math.Abs(eps-float64(p.Eps)) / float64(p.Eps); rel > 1e-3 {
		return fmt.Errorf("quant: unpack: grid endpoints [%v, %v] disagree with eps %v (corrupt or pre-Max-format record)",
			p.Min, p.Max, p.Eps)
	}
	var acc uint64 // unread stream bits, have of them, fewer than k between elements
	have, j := 0, 0
	for i := range dst {
		for ; have < k; have += 8 {
			acc |= uint64(p.Data[j]) << uint(have)
			j++
		}
		q := acc & levels
		acc >>= uint(k)
		have -= k
		switch {
		case q == 0:
			dst[i] = p.Min
		case q >= levels:
			dst[i] = p.Max
		default:
			dst[i] = float32(lo + float64(q)*eps)
		}
	}
	return nil
}

// SizeBytes returns the payload size.
func (p *Packed) SizeBytes() int { return len(p.Data) }
