package tensor

import (
	"math"
	"testing"
)

func batchGeoms() []ConvGeom {
	return []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 7, InW: 5, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 6, InW: 6, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 4, InH: 9, InW: 9, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 2, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2, Pad: 0},
	}
}

// im2colBatch packs x into a fresh column matrix.
func im2colBatch(x *Tensor, g ConvGeom) (*Tensor, error) {
	oh, ow := g.OutHW()
	cols := New(g.InC*g.KH*g.KW, x.Dim(0)*oh*ow)
	return cols, Im2ColBatchInto(cols, x, g)
}

// sample returns sample i of an NCHW batch as a batch of one.
func sample(x *Tensor, i int) *Tensor {
	sz := x.Len() / x.Dim(0)
	return MustFromSlice(x.Data()[i*sz:(i+1)*sz], 1, x.Dim(1), x.Dim(2), x.Dim(3))
}

// TestIm2ColBatchMatchesPerSample checks that the batched packing is
// column-for-column identical to packing each image alone: column i·S+s of
// the batch matrix must equal column s of sample i.
func TestIm2ColBatchMatchesPerSample(t *testing.T) {
	rng := NewRNG(42)
	for _, g := range batchGeoms() {
		const n = 3
		x := New(n, g.InC, g.InH, g.InW)
		x.FillNormal(rng, 0, 1)
		cols, err := im2colBatch(x, g)
		if err != nil {
			t.Fatalf("Im2ColBatchInto(%+v): %v", g, err)
		}
		oh, ow := g.OutHW()
		s := oh * ow
		kdim := g.InC * g.KH * g.KW
		for i := 0; i < n; i++ {
			want, err := im2colBatch(sample(x, i), g)
			if err != nil {
				t.Fatalf("Im2ColBatchInto: %v", err)
			}
			for r := 0; r < kdim; r++ {
				for c := 0; c < s; c++ {
					got := cols.At(r, i*s+c)
					if got != want.At(r, c) {
						t.Fatalf("geom %+v sample %d: col[%d,%d] = %v, want %v", g, i, r, c, got, want.At(r, c))
					}
				}
			}
		}
	}
}

// TestIm2ColBatchIntoOverwritesStaleScratch ensures the Into variant fully
// overwrites a reused destination: packing into a poisoned buffer must
// yield the same matrix as packing into a fresh one (padding zeros
// included).
func TestIm2ColBatchIntoOverwritesStaleScratch(t *testing.T) {
	rng := NewRNG(43)
	for _, g := range batchGeoms() {
		const n = 2
		x := New(n, g.InC, g.InH, g.InW)
		x.FillNormal(rng, 0, 1)
		fresh, err := im2colBatch(x, g)
		if err != nil {
			t.Fatalf("Im2ColBatchInto: %v", err)
		}
		oh, ow := g.OutHW()
		stale := New(g.InC*g.KH*g.KW, n*oh*ow)
		stale.Fill(float32(math.NaN()))
		if err := Im2ColBatchInto(stale, x, g); err != nil {
			t.Fatalf("Im2ColBatchInto: %v", err)
		}
		matEq(t, stale, fresh, 0)
	}
}

// TestCol2ImBatchMatchesPerSample checks the batched adjoint against
// scattering each sample's columns alone, including reuse of a poisoned
// destination.
func TestCol2ImBatchMatchesPerSample(t *testing.T) {
	rng := NewRNG(44)
	for _, g := range batchGeoms() {
		const n = 3
		oh, ow := g.OutHW()
		s := oh * ow
		kdim := g.InC * g.KH * g.KW
		cols := New(kdim, n*s)
		cols.FillNormal(rng, 0, 1)
		dst := New(n, g.InC, g.InH, g.InW)
		dst.Fill(float32(math.NaN()))
		if err := Col2ImBatchInto(dst, cols, g); err != nil {
			t.Fatalf("Col2ImBatchInto(%+v): %v", g, err)
		}
		inSz := g.InC * g.InH * g.InW
		for i := 0; i < n; i++ {
			// Extract sample i's columns into a per-sample matrix.
			sub := New(kdim, s)
			for r := 0; r < kdim; r++ {
				for c := 0; c < s; c++ {
					sub.Set(cols.At(r, i*s+c), r, c)
				}
			}
			want := New(1, g.InC, g.InH, g.InW)
			if err := Col2ImBatchInto(want, sub, g); err != nil {
				t.Fatalf("Col2ImBatchInto: %v", err)
			}
			got := dst.Data()[i*inSz : (i+1)*inSz]
			for j, w := range want.Data() {
				if math.Abs(float64(got[j]-w)) > 1e-6 {
					t.Fatalf("geom %+v sample %d: elem %d = %v, want %v", g, i, j, got[j], w)
				}
			}
		}
	}
}

// TestBatchConvRoundTripGEMM runs the full batched conv forward path
// (im2col + GEMM) against ConvDirect per sample, the same cross-check the
// per-sample path has, to pin the layout conventions end to end.
func TestBatchConvRoundTripGEMM(t *testing.T) {
	rng := NewRNG(45)
	g := ConvGeom{InC: 3, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const n, outC = 2, 4
	x := New(n, g.InC, g.InH, g.InW)
	x.FillNormal(rng, 0, 1)
	w := New(outC, g.InC, g.KH, g.KW)
	w.FillNormal(rng, 0, 1)

	cols, err := im2colBatch(x, g)
	if err != nil {
		t.Fatal(err)
	}
	w2d := MustFromSlice(w.Data(), outC, g.InC*g.KH*g.KW)
	prod, err := matMul(w2d, cols)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := g.OutHW()
	s := oh * ow
	inSz := g.InC * g.InH * g.InW
	for i := 0; i < n; i++ {
		img := MustFromSlice(x.Data()[i*inSz:(i+1)*inSz], g.InC, g.InH, g.InW)
		want, err := ConvDirect(img, w, g)
		if err != nil {
			t.Fatal(err)
		}
		for oc := 0; oc < outC; oc++ {
			for p := 0; p < s; p++ {
				got := prod.At(oc, i*s+p)
				if math.Abs(float64(got-want.Data()[oc*s+p])) > 1e-4 {
					t.Fatalf("sample %d oc %d pos %d: got %v, want %v", i, oc, p, got, want.Data()[oc*s+p])
				}
			}
		}
	}
}
