package infer

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/train"
)

// trainedModel trains a backbone to usable accuracy so integer-vs-float
// agreement is measured on meaningful predictions.
func trainedModel(t *testing.T, build func(models.Config) (*models.Model, error), epochs int) (*models.Model, data.Dataset, *tensor.Tensor) {
	t.Helper()
	tr, te, err := data.NewSynth(data.SynthConfig{
		Classes: 4, Train: 320, Test: 160, Size: 12, Seed: 21, Noise: 0.3,
	})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	m, err := build(models.Config{Classes: 4, InputSize: 12, Seed: 6})
	if err != nil {
		t.Fatalf("build model: %v", err)
	}
	if _, err := train.Run(train.Config{
		Model: m, Train: tr, Test: te, BatchSize: 32, Epochs: epochs,
		Schedule: optim.ConstSchedule(0.05), Momentum: 0.9, Seed: 2,
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	// Calibration batch from the training split.
	calib, _, err := data.PackBatch(tr, 32)
	if err != nil {
		t.Fatalf("PackBatch: %v", err)
	}
	return m, te, calib
}

// The SmallCNN fixture is shared across tests (training it once keeps the
// race-detector runs fast); tests must not mutate the model, dataset or
// calibration batch.
var (
	smallOnce  sync.Once
	smallModel *models.Model
	smallTest  data.Dataset
	smallCalib *tensor.Tensor
)

func trainedSmallCNN(t *testing.T) (*models.Model, data.Dataset, *tensor.Tensor) {
	t.Helper()
	smallOnce.Do(func() {
		smallModel, smallTest, smallCalib = trainedModel(t, models.SmallCNN, 4)
	})
	if smallModel == nil {
		t.Fatal("shared SmallCNN fixture failed to train")
	}
	return smallModel, smallTest, smallCalib
}

// testBatch packs n test samples and their labels.
func testBatch(t *testing.T, te data.Dataset, n int) (*tensor.Tensor, []int) {
	t.Helper()
	x, labels, err := data.PackBatch(te, n)
	if err != nil {
		t.Fatalf("PackBatch: %v", err)
	}
	return x, labels
}

// agreement returns the engine-vs-float agreement rate and both accuracy
// counts.
func agreement(t *testing.T, m *models.Model, eng *Engine, x *tensor.Tensor, labels []int) (agree float64, floatCorrect, intCorrect int) {
	t.Helper()
	floatLogits, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatalf("float forward: %v", err)
	}
	intPred, err := eng.Classify(x)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	n := len(labels)
	agreeN := 0
	for i := 0; i < n; i++ {
		fp := floatLogits.ArgMaxRow(i)
		if fp == intPred[i] {
			agreeN++
		}
		if fp == labels[i] {
			floatCorrect++
		}
		if intPred[i] == labels[i] {
			intCorrect++
		}
	}
	return float64(agreeN) / float64(n), floatCorrect, intCorrect
}

func TestCompileRequiresCalibration(t *testing.T) {
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 12, Seed: 6})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	if _, err := Compile(m, Config{}); err == nil {
		t.Error("missing calibration did not error")
	}
}

// TestNaNInputQuantizesDeterministically pins the serving-tier contract
// that a hostile payload cannot make the engine nondeterministic:
// uint8(NaN) is platform-defined in Go, so the input quantizer pins NaN
// to the grid's zero point — a NaN sample must classify bit-identically
// to the same sample with the NaN replaced by 0.0, and ±Inf must clamp
// to the grid edges, on every architecture.
func TestNaNInputQuantizesDeterministically(t *testing.T) {
	g := gridFor(-2, 2)
	if got, want := g.quantize(float32(math.NaN())), g.quantize(0); got != want {
		t.Errorf("quantize(NaN) = %d, want zero point %d", got, want)
	}
	if got := g.quantize(float32(math.Inf(1))); got != 255 {
		t.Errorf("quantize(+Inf) = %d, want 255", got)
	}
	if got := g.quantize(float32(math.Inf(-1))); got != 0 {
		t.Errorf("quantize(-Inf) = %d, want 0", got)
	}

	m, te, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x, _ := testBatch(t, te, 4)
	poisoned := tensor.MustFromSlice(append([]float32(nil), x.Data()...), x.Shape()...)
	clean := tensor.MustFromSlice(append([]float32(nil), x.Data()...), x.Shape()...)
	poisoned.Data()[5] = float32(math.NaN())
	clean.Data()[5] = 0
	got, err := eng.Forward(poisoned)
	if err != nil {
		t.Fatalf("Forward(poisoned): %v", err)
	}
	want, err := eng.Forward(clean)
	if err != nil {
		t.Fatalf("Forward(clean): %v", err)
	}
	for i, v := range got.Data() {
		if v != want.Data()[i] {
			t.Fatalf("logit %d: NaN batch %v != zeroed batch %v", i, v, want.Data()[i])
		}
	}
}

func TestIntegerEngineMatchesFloatModel(t *testing.T) {
	m, te, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x, labels := testBatch(t, te, 96)
	agree, floatCorrect, intCorrect := agreement(t, m, eng, x, labels)
	if agree < 0.85 {
		t.Errorf("int8 engine agrees with float on %.0f%% of predictions, want >= 85%%", 100*agree)
	}
	if float64(intCorrect) < 0.8*float64(floatCorrect) {
		t.Errorf("int8 accuracy %d/%d collapsed vs float %d/%d", intCorrect, len(labels), floatCorrect, len(labels))
	}
}

// The engine must agree with the float model on every supported backbone,
// including the residual topology the seed rejected at compile time.
func TestEngineMatchesFloatAcrossBackbones(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping multi-backbone training sweep")
	}
	backbones := []struct {
		name   string
		build  func(models.Config) (*models.Model, error)
		epochs int
		agree  float64
	}{
		{"cifarnet", func(cfg models.Config) (*models.Model, error) {
			cfg.Width = 0.5
			return models.CifarNet(cfg)
		}, 3, 0.85},
		{"vggsmall", func(cfg models.Config) (*models.Model, error) {
			cfg.Width = 0.25
			return models.VGGSmall(cfg)
		}, 3, 0.85},
		{"resnet20", func(cfg models.Config) (*models.Model, error) {
			cfg.Width = 0.25
			return models.ResNet20(cfg)
		}, 3, 0.75}, // ~20 quantized stages compound more grid error
	}
	for _, bb := range backbones {
		bb := bb
		t.Run(bb.name, func(t *testing.T) {
			m, te, calib := trainedModel(t, bb.build, bb.epochs)
			eng, err := Compile(m, Config{Calibration: calib})
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			x, labels := testBatch(t, te, 96)
			agree, floatCorrect, intCorrect := agreement(t, m, eng, x, labels)
			if agree < bb.agree {
				t.Errorf("agreement %.0f%%, want >= %.0f%%", 100*agree, 100*bb.agree)
			}
			if float64(intCorrect) < 0.75*float64(floatCorrect) {
				t.Errorf("int8 accuracy %d collapsed vs float %d", intCorrect, floatCorrect)
			}
		})
	}
}

// Batched inference must be bit-identical to running each sample alone:
// the micro-batching server depends on batch size never changing results.
func TestBatchedForwardMatchesPerSample(t *testing.T) {
	m, te, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const n = 16
	x, _ := testBatch(t, te, n)
	batched, err := eng.Forward(x)
	if err != nil {
		t.Fatalf("batched Forward: %v", err)
	}
	per := x.Len() / n
	classes := batched.Dim(1)
	for i := 0; i < n; i++ {
		one, err := tensor.FromSlice(x.Data()[i*per:(i+1)*per], 1, 3, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		single, err := eng.Forward(one)
		if err != nil {
			t.Fatalf("single Forward: %v", err)
		}
		for c := 0; c < classes; c++ {
			if single.At(0, c) != batched.At(i, c) {
				t.Fatalf("sample %d class %d: single %v != batched %v", i, c, single.At(0, c), batched.At(i, c))
			}
		}
	}
}

// Concurrent Forward calls on one engine must be race-clean (run with
// -race) and bit-identical to sequential execution.
func TestConcurrentForwardMatchesSequential(t *testing.T) {
	m, te, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const batches, bs = 8, 8
	inputs := make([]*tensor.Tensor, batches)
	want := make([]*tensor.Tensor, batches)
	for b := 0; b < batches; b++ {
		x := tensor.New(bs, 3, 12, 12)
		for i := 0; i < bs; i++ {
			img, _ := te.Sample((b*bs + i) % te.Len())
			copy(x.Data()[i*img.Len():(i+1)*img.Len()], img.Data())
		}
		inputs[b] = x
		out, err := eng.Forward(x)
		if err != nil {
			t.Fatalf("sequential Forward: %v", err)
		}
		want[b] = out
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*batches)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				out, err := eng.Forward(inputs[b])
				if err != nil {
					errs <- err
					return
				}
				for i := range out.Data() {
					if out.Data()[i] != want[b].Data()[i] {
						t.Errorf("batch %d diverged at %d under concurrency", b, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Forward: %v", err)
	}
}

// Steady-state Forward must stay within the alloc budget, the 4 objects
// measured: the output tensor at the boundary and nothing per layer
// (scratch is leased, workers pinned to 1 so no ParallelFor jobs are
// published).
func TestEngineForwardSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	m, _, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x := tensor.New(64, 3, 12, 12)
	rng := tensor.NewRNG(17)
	x.FillNormal(rng, 0, 1)
	// Warm up the scratch arenas at this batch size.
	if _, err := eng.Forward(x); err != nil {
		t.Fatalf("warm-up Forward: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Forward(x); err != nil {
			t.Fatalf("Forward: %v", err)
		}
	})
	if allocs > 4 {
		t.Errorf("Engine.Forward allocates %v objects/op steady-state, want <= 4", allocs)
	}
}

// TestEngineForwardSIMDPortableIdentical pins the dispatch contract: the
// assembly integer kernels and the portable Go fallback produce
// bit-identical engine outputs (integer arithmetic, exact kernels — the
// saturating fast path is only ever selected when it cannot saturate).
// On hosts without SIMD kernels both runs take the portable path and the
// test degenerates to a determinism check.
func TestEngineForwardSIMDPortableIdentical(t *testing.T) {
	m, te, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x, _ := testBatch(t, te, 32)
	prev := tensor.SetSIMD(true)
	defer tensor.SetSIMD(prev)
	simd, err := eng.Forward(x)
	if err != nil {
		t.Fatalf("Forward (simd): %v", err)
	}
	tensor.SetSIMD(false)
	portable, err := eng.Forward(x)
	if err != nil {
		t.Fatalf("Forward (portable): %v", err)
	}
	for i, v := range simd.Data() {
		if v != portable.Data()[i] {
			t.Fatalf("logit[%d]: simd %v != portable %v", i, v, portable.Data()[i])
		}
	}
}

// ReLU6 must fold as a clipped rectifier: the layer clamps calibration, so
// the lowered layer's output grid tops out at the cap rather than at the
// unbounded pre-activation range.
func TestReLU6FoldsWithCap(t *testing.T) {
	rng := tensor.NewRNG(31)
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: "c", In: g, OutC: 4, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	bn, err := nn.NewBatchNorm2D("bn", 4)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewLinear("fc", 4, 3, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewSequential("relu6net", conv, bn, nn.NewReLU6("r6"), nn.NewGlobalAvgPool("gap"), fc)
	m := &models.Model{Name: "relu6net", Net: net, InC: 2, InH: 6, InW: 6, Class: 3}

	// Inputs scaled so pre-activations comfortably exceed the cap.
	x := tensor.New(8, 2, 6, 6)
	x.FillNormal(rng, 0, 40)
	want, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	want = want.Clone()
	eng, err := Compile(m, Config{Calibration: x})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	q, ok := eng.layers[0].(*qaffine)
	if !ok || q.label != "c" || !q.relu {
		t.Fatalf("first lowered layer %T, want the fused conv→BN→ReLU6", eng.layers[0])
	}
	if top := q.out.dequantize(255); math.Abs(float64(top)-6) > float64(q.out.scale) {
		t.Errorf("ReLU6 output grid tops out at %v, want the cap 6 within one quantum %v (cap dropped?)", top, q.out.scale)
	}
	// The compiled engine must agree with the float model bit-for-class.
	logits, err := eng.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	agreeN := 0
	for i := 0; i < 8; i++ {
		if logits.ArgMaxRow(i) == want.ArgMaxRow(i) {
			agreeN++
		}
	}
	if agreeN < 6 {
		t.Errorf("relu6 engine agrees on %d/8 predictions", agreeN)
	}
}

// A convolution carrying foldBN's weights and bias must compute conv → BN
// in evaluation mode (folding is exact up to float rounding).
func TestBNFoldingPreservesFunction(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}
	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: "c", In: g, OutC: 6, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	bn, err := nn.NewBatchNorm2D("bn", 6)
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := make([]float64, 6), make([]float64, 6)
	for c := range mean {
		mean[c], variance[c] = rng.Norm(), 0.1+rng.Float64()*3
	}
	if err := bn.SetRunningStats(mean, variance); err != nil {
		t.Fatal(err)
	}
	for _, p := range bn.Params() {
		p.Value.FillNormal(rng, 0.5, 1)
	}
	x := tensor.New(4, 3, 8, 8)
	x.FillNormal(rng, 0, 1)
	y, err := conv.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bn.Forward(y, false)
	if err != nil {
		t.Fatal(err)
	}

	w := conv.Params()[0].Value.Clone()
	bias := make([]float32, 6)
	foldBN(w, bias, bn)
	folded, err := nn.NewConv2D(nn.Conv2DConfig{Name: "folded", In: g, OutC: 6, Bias: true, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	copy(folded.Params()[0].Value.Data(), w.Data())
	copy(folded.Params()[1].Value.Data(), bias)
	got, err := folded.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := range got.Data() {
		maxDiff = max(maxDiff, math.Abs(float64(got.Data()[i]-want.Data()[i])))
	}
	if maxDiff > 1e-3 {
		t.Errorf("folded conv deviates from conv → BN by %v", maxDiff)
	}
}

// Compile must reject a calibration batch whose sample shape is not the
// model's input geometry, rather than read the wrong pixels or run off the
// end of the batch.
func TestCompileRejectsCalibrationShape(t *testing.T) {
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 12, Seed: 6})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	for _, shape := range [][]int{{4, 3, 8, 8}, {4, 1, 12, 12}, {4, 3, 16, 16}} {
		x := tensor.New(shape...)
		x.FillNormal(tensor.NewRNG(1), 0, 1)
		if _, err := Compile(m, Config{Calibration: x}); !errors.Is(err, tensor.ErrShape) {
			t.Errorf("calibration %v: err = %v, want ErrShape", shape, err)
		}
	}
}

// TestCompileCost pins what one Compile of the bench-shaped SmallCNN
// (16×16, width 1, 64 calibration samples) costs: a bounded allocation
// volume, and almost nothing left behind in the model, whose layers keep
// their last input by reference and grow their arenas to the batch they
// see.
func TestCompileCost(t *testing.T) {
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Width: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	calib := tensor.New(64, 3, 16, 16)
	calib.FillNormal(tensor.NewRNG(4), 0, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if allocMB > 32 {
		t.Errorf("Compile allocated %.1f MB, want <= 32", allocMB)
	}
	if _, err := eng.Forward(calib); err != nil {
		t.Fatal(err)
	}
	eng = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	liveMB := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	if liveMB > 1 {
		t.Errorf("the model's live heap grew %.2f MB across Compile, want <= 1", liveMB)
	}
	t.Logf("Compile allocated %.1f MB; the model's live heap grew %.2f MB", allocMB, liveMB)
	runtime.KeepAlive(m)
	runtime.KeepAlive(calib)
}

func TestEngineSizeIsInt8(t *testing.T) {
	m, _, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var weightElems int
	for _, p := range m.Params() {
		if p.Value.Rank() > 1 {
			weightElems += p.Value.Len()
		}
	}
	size := eng.SizeBytes()
	// int8 weights plus a few int32 biases: well under the fp32 total and
	// at least one byte per weight element.
	if size < weightElems || size > 2*weightElems {
		t.Errorf("engine size %dB for %d weights; want ~1 byte/weight (+biases)", size, weightElems)
	}
}

func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(9)
	x := tensor.New(100)
	x.FillNormal(rng, 0, 1)
	min, max := x.MinMax()
	q := quantizeNew(x, min, max)
	back := q.dequantize()
	scale := float64(q.g.scale)
	for i := range x.Data() {
		if math.Abs(float64(x.Data()[i]-back.Data()[i])) > scale {
			t.Fatalf("round-trip error at %d exceeds one quantum", i)
		}
	}
	if q.len() != 100 {
		t.Errorf("len = %d", q.len())
	}
}

func TestMaxPoolCommutesWithQuantization(t *testing.T) {
	mp, err := nn.NewMaxPool2D("mp", 2)
	if err != nil {
		t.Fatalf("NewMaxPool2D: %v", err)
	}
	rng := tensor.NewRNG(10)
	x := tensor.New(1, 2, 4, 4)
	x.FillNormal(rng, 0, 1)
	min, max := x.MinMax()
	q := quantizeNew(x, min, max)
	qp := &qmaxpool{label: "mp", buf: 0, k: mp.Window()}
	s := newScratch(1)
	got, err := qp.forward(q, s)
	if err != nil {
		t.Fatalf("qmaxpool: %v", err)
	}
	want, err := mp.Forward(q.dequantize(), false)
	if err != nil {
		t.Fatalf("float pool: %v", err)
	}
	back := got.dequantize()
	for i := range want.Data() {
		if math.Abs(float64(want.Data()[i]-back.Data()[i])) > float64(q.g.scale) {
			t.Fatalf("int maxpool deviates at %d", i)
		}
	}
}

// The integer global average pool must match the float mean within one
// quantum of the shared grid.
func TestGlobalAvgPoolIntegerMatchesFloat(t *testing.T) {
	gap := nn.NewGlobalAvgPool("gap")
	rng := tensor.NewRNG(11)
	x := tensor.New(2, 3, 4, 4)
	x.FillNormal(rng, 0, 1)
	min, max := x.MinMax()
	q := quantizeNew(x, min, max)
	qg := &qgap{label: "gap", buf: 0}
	s := newScratch(1)
	got, err := qg.forward(q, s)
	if err != nil {
		t.Fatalf("qgap: %v", err)
	}
	want, err := gap.Forward(q.dequantize(), false)
	if err != nil {
		t.Fatalf("float gap: %v", err)
	}
	back := got.dequantize()
	for i := range want.Data() {
		if math.Abs(float64(want.Data()[i]-back.Data()[i])) > float64(q.g.scale) {
			t.Fatalf("int gap deviates at %d: %v vs %v", i, back.Data()[i], want.Data()[i])
		}
	}
}

// quantizeNew allocates a fresh qtensor for t on the [min, max] grid
// (the engine path reuses scratch slots).
func quantizeNew(t *tensor.Tensor, min, max float32) *qtensor {
	q := &qtensor{}
	quantizeInto(q, t, gridFor(min, max))
	return q
}
