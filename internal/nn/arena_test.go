package nn

import (
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// testConv builds the SmallCNN-shaped first convolution used by the arena
// and parallelism tests.
func testConv(t *testing.T, bias bool) (*Conv2D, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(7)
	conv, err := NewConv2D(Conv2DConfig{
		Name: "c",
		In:   tensor.ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		OutC: 8, Bias: bias, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 16, 16)
	x.FillNormal(rng, 0, 1)
	return conv, x
}

// TestConvSteadyStateAllocs pins the zero-alloc property of the conv hot
// path: once the arenas and the driver's band scratch are warm, a serial
// forward+backward pair allocates nothing at all.
func TestConvSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1) // serial: measure layer allocs, not pool jobs
	defer tensor.SetMaxWorkers(prev)
	conv, x := testConv(t, true)
	dout := tensor.New(4, 8, 16, 16)
	dout.Fill(0.01)
	step := func() {
		if _, err := conv.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		if _, err := conv.Backward(dout); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the arenas
	allocs := testing.AllocsPerRun(10, step)
	if allocs != 0 {
		t.Fatalf("steady-state conv forward+backward allocates %.0f objects per step, want 0", allocs)
	}
}

// TestLinearSteadyStateAllocs pins the same property for the linear layer,
// at a full batch and at a batch of 4, where the forward and input-gradient
// products are one 4-row group: every orientation packs into the layer's
// arena or a pooled pack and runs the packed kernels, so a serial warm
// step allocates nothing.
func TestLinearSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(8)
	for _, batch := range []int{16, 4} {
		lin, err := NewLinear("l", 64, 10, true, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(batch, 64)
		x.FillNormal(rng, 0, 1)
		dout := tensor.New(batch, 10)
		dout.Fill(0.05)
		step := func() {
			if _, err := lin.Forward(x, true); err != nil {
				t.Fatal(err)
			}
			if _, err := lin.Backward(dout); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("batch %d: steady-state linear forward+backward allocates %.0f objects per step, want 0", batch, allocs)
		}
	}
}

// TestBlockSteadyStateAllocs pins the warm serial step of a conv → BN →
// ReLU triple and of a residual block at zero allocations: every
// per-channel and element-wise pass is a value-type job (forChunks), so
// none builds a pool closure when it runs serially, and no step allocates a
// data buffer or a copy of an activation's shape.
func TestBlockSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(9)
	conv, x := testConv(t, false)
	bn, err := NewBatchNorm2D("bn", 8)
	if err != nil {
		t.Fatal(err)
	}
	triple := NewSequential("triple", conv, bn, NewReLU("relu"))
	conv2, err := NewConv2D(Conv2DConfig{Name: "c2", In: tensor.ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, OutC: 8, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	bn2, err := NewBatchNorm2D("bn2", 8)
	if err != nil {
		t.Fatal(err)
	}
	block := NewResidual("block", NewSequential("main", conv2, bn2), nil)
	dout := tensor.New(4, 8, 16, 16)
	dout.Fill(0.01)
	for _, c := range []struct {
		name string
		l    Layer
		x    *tensor.Tensor
		want float64
	}{
		{"conv-bn-relu", triple, x, 0},
		{"residual", block, dout, 0},
	} {
		step := func() {
			if _, err := c.l.Forward(c.x, true); err != nil {
				t.Fatal(err)
			}
			if _, err := c.l.Backward(dout); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs != c.want {
			t.Errorf("%s: steady-state forward+backward allocates %.0f objects per step, want %.0f", c.name, allocs, c.want)
		}
	}
}

// TestConvParallelMatchesSerial runs the batched conv forward/backward
// under several worker counts and demands bit-identical results; under
// `go test -race` this also exercises the parallel sections for data races
// (the seed's shared ferr write was one).
func TestConvParallelMatchesSerial(t *testing.T) {
	conv, x := testConv(t, true)
	dout := tensor.New(4, 8, 16, 16)
	rng := tensor.NewRNG(9)
	dout.FillNormal(rng, 0, 1)

	prev := tensor.SetMaxWorkers(1)
	outS, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	outSer := outS.Clone()
	dxS, err := conv.Backward(dout)
	if err != nil {
		t.Fatal(err)
	}
	dxSer := dxS.Clone()
	gwSer := conv.weight.Grad.Clone()
	tensor.SetMaxWorkers(prev)

	for _, workers := range []int{2, 4, 8} {
		conv.weight.Grad.Zero()
		conv.bias.Grad.Zero()
		tensor.SetMaxWorkers(workers)
		outP, err := conv.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range outP.Data() {
			if v != outSer.Data()[i] {
				t.Fatalf("workers=%d: forward elem %d differs: %v vs %v", workers, i, v, outSer.Data()[i])
			}
		}
		dxP, err := conv.Backward(dout)
		if err != nil {
			t.Fatal(err)
		}
		tensor.SetMaxWorkers(prev)
		for i, v := range dxP.Data() {
			if v != dxSer.Data()[i] {
				t.Fatalf("workers=%d: dx elem %d differs: %v vs %v", workers, i, v, dxSer.Data()[i])
			}
		}
		for i, v := range conv.weight.Grad.Data() {
			if v != gwSer.Data()[i] {
				t.Fatalf("workers=%d: dW elem %d differs: %v vs %v", workers, i, v, gwSer.Data()[i])
			}
		}
	}
}

// TestConvArenaHandlesShrinkingBatch checks the arenas re-slice correctly
// when batch size drops (the trainer's last partial batch) and grows back.
func TestConvArenaHandlesShrinkingBatch(t *testing.T) {
	rng := tensor.NewRNG(11)
	conv, x := testConv(t, true)
	big, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	bigClone := big.Clone()

	small := tensor.New(2, 3, 16, 16)
	small.FillNormal(rng, 0, 1)
	outSmall, err := conv.Forward(small, true)
	if err != nil {
		t.Fatal(err)
	}
	if outSmall.Dim(0) != 2 {
		t.Fatalf("small-batch output shape %v", outSmall.Shape())
	}
	doutSmall := tensor.New(2, 8, 16, 16)
	doutSmall.Fill(0.1)
	if _, err := conv.Backward(doutSmall); err != nil {
		t.Fatal(err)
	}

	// Growing back must reproduce the original full-batch output exactly.
	again, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range again.Data() {
		if v != bigClone.Data()[i] {
			t.Fatalf("batch regrow: elem %d differs: %v vs %v", i, v, bigClone.Data()[i])
		}
	}
}

// TestConvBackwardBeforeForward preserves the layer's misuse diagnostics
// with the arena-based state tracking.
func TestConvBackwardBeforeForward(t *testing.T) {
	conv, x := testConv(t, false)
	dout := tensor.New(4, 8, 16, 16)
	if _, err := conv.Backward(dout); err == nil {
		t.Fatal("backward before any forward should error")
	}
	if _, err := conv.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Backward(dout); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Backward(dout); err == nil {
		t.Fatal("second backward without a new forward should error")
	}
}

// float32Slices walks every value reachable from v — through pointers,
// structs and slices, unexported fields included — and reports each
// distinct []float32 backing array once, by the path that first reached it.
func float32Slices(v reflect.Value, path string, seen map[uintptr]bool, visit func(path string, floats int)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			float32Slices(v.Elem(), path, seen, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			float32Slices(v.Field(i), path+"."+v.Type().Field(i).Name, seen, visit)
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		if v.Type().Elem().Kind() == reflect.Float32 {
			if !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				visit(path, v.Cap())
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			float32Slices(v.Index(i), path+"[]", seen, visit)
		}
	}
}

// TestConvHoldsNoBatchPatchMatrix is the white-box pin of the band conv's
// memory claim: after a full training step no buffer reachable from a
// Conv2D — arenas, driver scratch, the retained input — is larger than an
// activation, and everything but the activations together stays under an
// eighth of ONE kdim × N·OH·OW patch matrix (the im2col layer held four).
func TestConvHoldsNoBatchPatchMatrix(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(2))
	rng := tensor.NewRNG(13)
	g := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: g, OutC: 16, Bias: true, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	x := tensor.New(n, g.InC, g.InH, g.InW)
	x.FillNormal(rng, 0, 1)
	out, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]int{}
	float32Slices(reflect.ValueOf(conv), "conv", map[uintptr]bool{}, func(path string, floats int) { reached[path] = floats })
	if reached["conv.x.data"] != x.Len() {
		t.Fatalf("the input is not retained by reference: reached %v", reached)
	}
	if _, err := conv.Backward(out); err != nil {
		t.Fatal(err)
	}
	activation := max(x.Len(), out.Len())
	patch := g.InC * g.KH * g.KW * out.Len() / conv.outC
	other := 0
	float32Slices(reflect.ValueOf(conv), "conv", map[uintptr]bool{}, func(path string, floats int) {
		if floats > activation {
			t.Errorf("%s holds %d floats, more than an activation (%d): a batch-sized scratch survived", path, floats, activation)
		}
		if path != "conv.out.buf" && path != "conv.dx.buf" {
			other += floats
		}
	})
	if other == 0 || other > patch/8 {
		t.Errorf("scratch, partials and parameters hold %d floats; want a positive count under %d (an eighth of the %d-float patch matrix)", other, patch/8, patch)
	}
}
