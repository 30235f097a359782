package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
		{[]int{1, 1, 1, 1}, 1},
	}
	for _, tc := range cases {
		tr := New(tc.shape...)
		if tr.Len() != tc.want {
			t.Errorf("New(%v).Len() = %d, want %d", tc.shape, tr.Len(), tc.want)
		}
		if tr.Rank() != len(tc.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", tc.shape, tr.Rank(), len(tc.shape))
		}
	}
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := FromSlice([]float32{1, 2, 3}, 2, 2); !errors.Is(err, ErrShape) {
		t.Errorf("FromSlice with wrong count: err = %v, want ErrShape", err)
	}
	if _, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2); err != nil {
		t.Errorf("FromSlice valid: err = %v", err)
	}
	if _, err := FromSlice(nil, 0); !errors.Is(err, ErrShape) {
		t.Errorf("FromSlice zero dim: err = %v, want ErrShape", err)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tr := New(2, 3, 4)
	tr.Set(42, 1, 2, 3)
	if got := tr.At(1, 2, 3); got != 42 {
		t.Errorf("At(1,2,3) = %v, want 42", got)
	}
	// row-major layout: offset = ((1*3)+2)*4+3 = 23
	if tr.Data()[23] != 42 {
		t.Errorf("row-major offset mismatch: data[23] = %v", tr.Data()[23])
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Data()[0] = 99
	if a.Data()[0] != 1 {
		t.Error("Clone shares backing storage")
	}
}

func TestReshape(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatalf("Reshape: %v", err)
	}
	if b.At(2, 1) != 6 {
		t.Errorf("reshaped At(2,1) = %v, want 6", b.At(2, 1))
	}
	if _, err := a.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Errorf("bad reshape err = %v, want ErrShape", err)
	}
	// Reshape is a view.
	b.Data()[0] = 77
	if a.Data()[0] != 77 {
		t.Error("Reshape did not alias storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 4)
	b := MustFromSlice([]float32{10, 20, 30, 40}, 4)
	if err := a.Add(b); err != nil {
		t.Fatalf("Add: %v", err)
	}
	want := []float32{11, 22, 33, 44}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Errorf("Add[%d] = %v, want %v", i, v, want[i])
		}
	}
	a.Scale(2)
	if a.Data()[3] != 88 {
		t.Errorf("Scale: got %v, want 88", a.Data()[3])
	}
	c := MustFromSlice([]float32{1, 1}, 2)
	if err := a.Add(c); !errors.Is(err, ErrShape) {
		t.Errorf("shape-mismatched Add err = %v, want ErrShape", err)
	}
}

func TestReductions(t *testing.T) {
	a := MustFromSlice([]float32{-1, 2, -3, 4}, 4)
	if got := a.AbsMean(); got != 2.5 {
		t.Errorf("AbsMean = %v, want 2.5", got)
	}
	min, max := a.MinMax()
	if min != -3 || max != 4 {
		t.Errorf("MinMax = (%v, %v), want (-3, 4)", min, max)
	}
}

func TestArgMaxRow(t *testing.T) {
	a := MustFromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	if got := a.ArgMaxRow(0); got != 1 {
		t.Errorf("ArgMaxRow(0) = %d, want 1", got)
	}
	if got := a.ArgMaxRow(1); got != 0 {
		t.Errorf("ArgMaxRow(1) = %d, want 0", got)
	}
}

func TestHasNaN(t *testing.T) {
	a := MustFromSlice([]float32{1, 2}, 2)
	if a.HasNaN() {
		t.Error("HasNaN on clean tensor")
	}
	a.Data()[1] = float32(math.NaN())
	if !a.HasNaN() {
		t.Error("HasNaN missed NaN")
	}
	a.Data()[1] = float32(math.Inf(1))
	if !a.HasNaN() {
		t.Error("HasNaN missed Inf")
	}
}

// Property: subtracting the operand after Add restores the original
// values exactly (float32 addition of the same operand is exactly
// invertible only when no rounding occurs, so keep values in a safe
// integer range).
func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		a := New(len(vals))
		b := New(len(vals))
		for i, v := range vals {
			a.Data()[i] = float32(v)
			b.Data()[i] = float32(v / 2)
		}
		orig := a.Clone()
		if err := a.Add(b); err != nil {
			return false
		}
		for i := range a.Data() {
			if a.Data()[i]-b.Data()[i] != orig.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MinMax brackets every element.
func TestMinMaxBracketsProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) {
				vals[i] = 0
			}
		}
		a := New(len(vals))
		copy(a.Data(), vals)
		min, max := a.MinMax()
		for _, v := range vals {
			if v < min || v > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		prev := SetMaxWorkers(workers)
		n := 1000
		hits := make([]int32, n)
		ParallelFor(n, func(i int) { hits[i]++ })
		SetMaxWorkers(prev)
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	ParallelFor(0, func(int) { called = true })
	ParallelFor(-3, func(int) { called = true })
	if called {
		t.Error("ParallelFor called fn for non-positive n")
	}
}
