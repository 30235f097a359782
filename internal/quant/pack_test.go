package quant

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestPackRejectsFullPrecision(t *testing.T) {
	v := tensor.New(4)
	if _, err := Pack(v, nil); err == nil {
		t.Error("nil state did not error")
	}
	st := &State{Bits: 32}
	if _, err := Pack(v, st); err == nil {
		t.Error("32-bit state did not error")
	}
}

func TestPackUnpackRoundTripExact(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, k := range []int{2, 3, 5, 8, 13} {
		st, err := NewState(k)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		v := tensor.New(4, 9) // deliberately non-multiple-of-8 element count
		v.FillNormal(rng, 0, 1)
		st.Quantize(v) // snap onto the grid first
		p, err := Pack(v, st)
		if err != nil {
			t.Fatalf("Pack(k=%d): %v", k, err)
		}
		back, err := p.Unpack(4, 9)
		if err != nil {
			t.Fatalf("Unpack(k=%d): %v", k, err)
		}
		for i := range v.Data() {
			if math.Abs(float64(v.Data()[i]-back.Data()[i])) > 1e-6 {
				t.Fatalf("k=%d round-trip mismatch at %d: %v vs %v",
					k, i, v.Data()[i], back.Data()[i])
			}
		}
	}
}

func TestPackedSizeMatchesAccounting(t *testing.T) {
	// The Packed payload must be exactly ceil(n*k/8) bytes — the number
	// SizeBits/8 rounds to — pinning the simulated accounting to reality.
	rng := tensor.NewRNG(6)
	for _, tc := range []struct{ n, k int }{
		{100, 6}, {64, 8}, {33, 3}, {2, 2}, {1000, 13},
	} {
		st, err := NewState(tc.k)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		v := tensor.New(tc.n)
		v.FillNormal(rng, 0, 1)
		st.Quantize(v)
		p, err := Pack(v, st)
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		wantBytes := (tc.n*tc.k + 7) / 8
		if p.SizeBytes() != wantBytes {
			t.Errorf("n=%d k=%d payload %dB, want %dB", tc.n, tc.k, p.SizeBytes(), wantBytes)
		}
		simBits := SizeBits(tc.n, tc.k)
		if int64(p.SizeBytes()) < simBits/8 || int64(p.SizeBytes()) > simBits/8+1 {
			t.Errorf("packed size %dB inconsistent with SizeBits %d", p.SizeBytes(), simBits)
		}
	}
}

func TestUnpackShapeMismatch(t *testing.T) {
	rng := tensor.NewRNG(7)
	st, err := NewState(4)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	v := tensor.New(10)
	v.FillNormal(rng, 0, 1)
	st.Quantize(v)
	p, err := Pack(v, st)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if _, err := p.Unpack(3, 3); err == nil {
		t.Error("wrong-shape unpack did not error")
	}
}

// Property: pack∘unpack is the identity on any grid-snapped tensor for
// arbitrary bitwidths and sizes.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		k := MinBits + rng.Intn(14)
		n := 1 + rng.Intn(200)
		st, err := NewState(k)
		if err != nil {
			return false
		}
		v := tensor.New(n)
		v.FillNormal(rng, 0, 1)
		st.Quantize(v)
		if st.Eps == 0 {
			return true
		}
		p, err := Pack(v, st)
		if err != nil {
			return false
		}
		back, err := p.Unpack(n)
		if err != nil {
			return false
		}
		for i := range v.Data() {
			if math.Abs(float64(v.Data()[i]-back.Data()[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitStreamHelpers(t *testing.T) {
	buf := make([]byte, 8)
	writeBits(buf, 0, 0b101, 3)
	writeBits(buf, 3, 0b11111, 5)
	writeBits(buf, 8, 0x3FF, 10)
	if got := readBits(buf, 0, 3); got != 0b101 {
		t.Errorf("readBits(0,3) = %b", got)
	}
	if got := readBits(buf, 3, 5); got != 0b11111 {
		t.Errorf("readBits(3,5) = %b", got)
	}
	if got := readBits(buf, 8, 10); got != 0x3FF {
		t.Errorf("readBits(8,10) = %x", got)
	}
}

// writeBits stores the low k bits of v starting at bit position pos
// (little-endian within the byte stream), one bit at a time: the packer's
// original bit I/O, kept as the oracle for the word-level one.
func writeBits(buf []byte, pos int, v uint64, k int) {
	for i := 0; i < k; i++ {
		if v&(1<<uint(i)) != 0 {
			buf[(pos+i)/8] |= 1 << uint((pos+i)%8)
		}
	}
}

// readBits extracts k bits starting at bit position pos.
func readBits(buf []byte, pos int, k int) uint64 {
	var v uint64
	for i := 0; i < k; i++ {
		if buf[(pos+i)/8]&(1<<uint((pos+i)%8)) != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// bitwisePack is the bit-at-a-time packer: the index arithmetic of Pack,
// written one bit per writeBits step into a fresh zeroed buffer. It is
// FuzzPackVsBitwise's oracle for the payload bytes.
func bitwisePack(t *tensor.Tensor, st *State) []byte {
	if st.Eps == 0 {
		return nil
	}
	k := st.Bits
	buf := make([]byte, (t.Len()*k+7)/8)
	levels := uint64(1)<<uint(k) - 1
	eps := (float64(st.Max) - float64(st.Min)) / float64(levels)
	lo := float64(st.Min)
	for i, v := range t.Data() {
		q := math.Round((float64(v) - lo) / eps)
		if q < 0 {
			q = 0
		}
		if q > float64(levels) {
			q = float64(levels)
		}
		writeBits(buf, i*k, uint64(q), k)
	}
	return buf
}

// bitwiseDecode is the bit-at-a-time decoder, FuzzPackVsBitwise's oracle
// for the floats Unpack returns. p must be a well-formed record.
func bitwiseDecode(p *Packed) []float32 {
	out := make([]float32, p.Count)
	if p.Eps == 0 {
		for i := range out {
			out[i] = p.Min
		}
		return out
	}
	levels := uint64(1)<<uint(p.Bits) - 1
	lo := float64(p.Min)
	eps := (float64(p.Max) - lo) / float64(levels)
	for i := range out {
		switch q := readBits(p.Data, i*p.Bits, p.Bits); {
		case q == 0:
			out[i] = p.Min
		case q >= levels:
			out[i] = p.Max
		default:
			out[i] = float32(lo + float64(q)*eps)
		}
	}
	return out
}

// FuzzPackVsBitwise is the spec of the packed stream (pack.go: LSB-first,
// k bits per index, ⌈n·k/8⌉ bytes): for k from MinBits to 31 and n from 1
// to 300, Pack's bytes must equal the bit-at-a-time oracle's and Unpack's
// floats its decode, bit for bit. Values mix on-grid, off-grid and
// beyond-range values, ±Inf, NaN and ±0; when n ≥ 8 a run of eight NaNs
// starts at nanAt, so a NaN lands at every bit alignment of odd k and
// cannot spill into its neighbours. degenerate collapses the grid (Eps 0).
// PackInto must give the same bytes over a longer payload of 0xFF bytes,
// and UnpackInto the same floats over a destination of NaNs.
func FuzzPackVsBitwise(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, kb uint8, nb, nanAt uint16, spanExp int8, degenerate bool) {
		k := MinBits + int(kb)%(MaxBits-MinBits)
		n := 1 + int(nb)%300
		rng := tensor.NewRNG(seed)
		lo := float32(rng.Norm() * 4)
		span := float32(math.Ldexp(1+rng.Float64(), int(spanExp)%16))
		hi := lo + span
		if degenerate {
			hi = lo
		}
		st := &State{Bits: k, Min: lo, Max: hi, Eps: Epsilon(lo, hi, k)}
		levels := uint64(1)<<uint(k) - 1
		eps := (float64(hi) - float64(lo)) / float64(levels)
		v := tensor.New(n)
		d := v.Data()
		for i := range d {
			switch rng.Intn(7) {
			case 0:
				d[i] = float32(float64(lo) + float64(rng.Uint64()%(levels+1))*eps)
			case 1:
				d[i] = lo + span*rng.Float32()
			case 2:
				d[i] = lo - span*(1+4*rng.Float32())
			case 3:
				d[i] = hi + span*(1+4*rng.Float32())
			case 4:
				d[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
			case 5:
				d[i] = float32(math.Copysign(0, float64(1-2*rng.Intn(2))))
			default:
				d[i] = float32(math.NaN())
			}
		}
		if n >= 8 {
			for j, at := 0, int(nanAt)%(n-7); j < 8; j++ {
				d[at+j] = float32(math.NaN())
			}
		}
		label := fmt.Sprintf("k=%d n=%d grid [%v, %v] eps %v", k, n, lo, hi, st.Eps)

		p, err := Pack(v, st)
		if err != nil {
			t.Fatalf("%s: Pack: %v", label, err)
		}
		if want := bitwisePack(v, st); !bytes.Equal(p.Data, want) || len(p.Data) != len(want) {
			t.Fatalf("%s: payload\n% x\nwant\n% x", label, p.Data, want)
		}
		if p.Bits != k || p.Min != lo || p.Max != hi || p.Eps != st.Eps || p.Count != n {
			t.Fatalf("%s: header %+v", label, *p)
		}
		// The reuse path overwrites a longer payload of 0xFF bytes.
		reused := &Packed{Bits: 99, Count: -1, Data: bytes.Repeat([]byte{0xFF}, len(p.Data)+int(nanAt%9))}
		if err := PackInto(reused, v, st); err != nil {
			t.Fatalf("%s: PackInto: %v", label, err)
		}
		if !bytes.Equal(reused.Data, p.Data) || reused.Bits != k || reused.Count != n {
			t.Fatalf("%s: PackInto over 0xFF\n% x\nwant\n% x", label, reused.Data, p.Data)
		}

		want := bitwiseDecode(p)
		back, err := p.Unpack(n)
		if err != nil {
			t.Fatalf("%s: Unpack: %v", label, err)
		}
		into := make([]float32, n)
		for i := range into {
			into[i] = float32(math.NaN())
		}
		if err := p.UnpackInto(into); err != nil {
			t.Fatalf("%s: UnpackInto: %v", label, err)
		}
		for i, g := range back.Data() {
			if math.Float32bits(g) != math.Float32bits(want[i]) || math.Float32bits(into[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d: Unpack %v, UnpackInto %v, want %v", label, i, g, into[i], want[i])
			}
		}
	})
}

// TestUnpackRejectsCorruptRecords feeds Unpack and UnpackInto records no
// Pack call writes — a bitwidth outside [MinBits, MaxBits), a negative or
// oversized count, a payload shorter than ⌈Count·Bits/8⌉ bytes, a shape
// with a non-positive dimension — and wants an error, not a panic.
func TestUnpackRejectsCorruptRecords(t *testing.T) {
	grid := func(k, count, n int) Packed {
		return Packed{Bits: k, Min: -1, Max: 1, Eps: Epsilon(-1, 1, k), Count: count, Data: make([]byte, n)}
	}
	for _, tc := range []struct {
		name  string
		p     Packed
		shape []int
	}{
		{"payload 2 of 10 bytes", grid(8, 10, 2), []int{10}},
		{"payload 38 of 39 bytes", grid(31, 10, 38), []int{10}},
		{"no payload", grid(5, 1, 0), []int{1}},
		{"1 bit", grid(1, 8, 1), []int{8}},
		{"0 bits", Packed{Bits: 0, Min: -1, Max: 1, Eps: 1, Count: 4, Data: make([]byte, 4)}, []int{4}},
		{"32 bits", Packed{Bits: 32, Min: -1, Max: 1, Eps: 1, Count: 1, Data: make([]byte, 8)}, []int{1}},
		{"64 bits", Packed{Bits: 64, Min: -1, Max: 1, Eps: 1, Count: 1, Data: make([]byte, 8)}, []int{1}},
		{"negative bits", Packed{Bits: -3, Min: -1, Max: 1, Eps: 1, Count: 1, Data: make([]byte, 8)}, []int{1}},
		{"negative count", grid(8, -1, 8), []int{1}},
		{"count overflows the bit length", grid(31, math.MaxInt, 16), []int{4}},
		{"degenerate, negative bits", Packed{Bits: -1, Min: 3, Max: 3, Count: 2}, []int{2}},
	} {
		if _, err := tc.p.Unpack(tc.shape...); err == nil {
			t.Errorf("%s: Unpack(%v) did not error", tc.name, tc.shape)
		}
		if n := tc.p.Count; n >= 1 && n <= 64 {
			if err := tc.p.UnpackInto(make([]float32, n)); err == nil {
				t.Errorf("%s: UnpackInto did not error", tc.name)
			}
		}
	}
	// A sound record still refuses a shape tensor.New would panic on.
	for _, tc := range []struct {
		count int
		shape []int
	}{{0, []int{0}}, {1, []int{-1, -1}}} {
		p := grid(8, tc.count, tc.count)
		if _, err := p.Unpack(tc.shape...); err == nil {
			t.Errorf("Unpack(%v) of a %d-element record did not error", tc.shape, tc.count)
		}
	}
	// The boundary cases decode: exactly ⌈Count·Bits/8⌉ bytes, and a
	// degenerate grid with no payload at all.
	for _, p := range []Packed{grid(31, 10, 39), grid(8, 10, 10), {Bits: 8, Min: 3, Max: 3, Count: 5}} {
		if _, err := p.Unpack(p.Count); err != nil {
			t.Errorf("%d-bit record of %d bytes for %d elements: %v", p.Bits, len(p.Data), p.Count, err)
		}
	}
}

// TestPackIntoUnpackIntoAllocFree pins the broadcast round trip's codec
// cost: once p's payload has grown to the tensor's size, PackInto and
// UnpackInto allocate nothing.
func TestPackIntoUnpackIntoAllocFree(t *testing.T) {
	st, err := NewState(7)
	if err != nil {
		t.Fatal(err)
	}
	v := tensor.New(3, 333)
	v.FillNormal(tensor.NewRNG(8), 0, 1)
	st.Quantize(v)
	var p Packed
	dst := make([]float32, v.Len())
	if err := PackInto(&p, v, st); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := PackInto(&p, v, st); err != nil {
			t.Fatal(err)
		}
		if err := p.UnpackInto(dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PackInto + UnpackInto allocate %v times per call, want 0", allocs)
	}
}
