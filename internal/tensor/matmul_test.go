package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func matEq(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v != %v", got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		if math.Abs(float64(got.Data()[i]-want.Data()[i])) > tol {
			t.Fatalf("elem %d: got %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

// matMul returns a·b in a fresh tensor, through MatMulInto.
func matMul(a, b *Tensor) (*Tensor, error) {
	m, _, n, err := checkMatMul2D("matmul", a, b, false, false)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	return out, MatMulInto(out, a, b)
}

func TestMatMulKnown(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got, err := matMul(a, b)
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	want := MustFromSlice([]float32{58, 64, 139, 154}, 2, 2)
	matEq(t, got, want, 0)
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := matMul(a, b); !errors.Is(err, ErrShape) {
		t.Errorf("inner-dim mismatch err = %v, want ErrShape", err)
	}
	if _, err := matMul(New(2), b); !errors.Is(err, ErrShape) {
		t.Errorf("rank mismatch err = %v, want ErrShape", err)
	}
}

// naive transposes for cross-checking the fused variants.
func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(a.At(i, j), j, i)
		}
	}
	return out
}

func randMat(rng *RNG, m, n int) *Tensor {
	t := New(m, n)
	t.FillNormal(rng, 0, 1)
	return t
}

func TestMatMulTransAAgainstExplicitTranspose(t *testing.T) {
	rng := NewRNG(5)
	a := randMat(rng, 7, 4) // (k, m)
	b := randMat(rng, 7, 5) // (k, n)
	got := New(4, 5)
	if err := MatMulTransAInto(got, a, b); err != nil {
		t.Fatalf("MatMulTransAInto: %v", err)
	}
	want, err := matMul(transpose(a), b)
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	matEq(t, got, want, 1e-4)
}

func TestMatMulTransBAgainstExplicitTranspose(t *testing.T) {
	rng := NewRNG(6)
	a := randMat(rng, 3, 8) // (m, k)
	b := randMat(rng, 5, 8) // (n, k)
	got := New(3, 5)
	if err := MatMulTransBInto(got, a, b); err != nil {
		t.Fatalf("MatMulTransBInto: %v", err)
	}
	want, err := matMul(a, transpose(b))
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	matEq(t, got, want, 1e-4)
}

// Property: (A·B)·e_j column selection equals A·(B e_j): matmul respects
// linearity for random small matrices against a naive triple loop.
func TestMatMulAgainstNaiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		got, err := matMul(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for p := 0; p < k; p++ {
					s += float64(a.At(i, p)) * float64(b.At(p, j))
				}
				if math.Abs(float64(got.At(i, j))-s) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatMulSerialMatchesParallel(t *testing.T) {
	rng := NewRNG(9)
	a := randMat(rng, 33, 17)
	b := randMat(rng, 17, 29)
	prev := SetMaxWorkers(1)
	serial, err := matMul(a, b)
	SetMaxWorkers(8)
	parallel, err2 := matMul(a, b)
	SetMaxWorkers(prev)
	if err != nil || err2 != nil {
		t.Fatalf("MatMul: %v / %v", err, err2)
	}
	matEq(t, parallel, serial, 0) // identical partitioned arithmetic
}
