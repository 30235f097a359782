package tensor

import "testing"

// Conv-shaped integer GEMM: SmallCNN layer 3 at the deploy geometry (64-
// sample batch of 8×8 outputs) through the packed path — activations ×
// prepacked weight panels, the serving-engine orientation: m = 4096
// output positions, k = 144, n = 32 filters.
func benchPackedOperandsConv(b *testing.B) (a []uint8, pb *PackedI8, m, lda int) {
	rng := NewRNG(7)
	m, k, n := 4096, 144, 32
	bt := randI8(rng, n*k)
	pb, err := PackI8PanelsBT(bt, k, n)
	if err != nil {
		b.Fatal(err)
	}
	return padForQuads(randU8(rng, m*k)), pb, m, k
}

func BenchmarkMatMulU8I8Packed(b *testing.B) {
	a, pb, m, lda := benchPackedOperandsConv(b)
	dst := make([]int32, m*pb.Cols())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulU8I8PackedInto(dst, a, pb, m, lda); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulU8I8PackedPortable(b *testing.B) {
	a, pb, m, lda := benchPackedOperandsConv(b)
	prev := SetSIMD(false)
	defer SetSIMD(prev)
	dst := make([]int32, m*pb.Cols())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulU8I8PackedInto(dst, a, pb, m, lda); err != nil {
			b.Fatal(err)
		}
	}
}
