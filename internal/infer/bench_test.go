package infer

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/train"
)

// benchEngine compiles a lightly-trained SmallCNN at the deploy example's
// 16×16 geometry (matching the seed interpreter baseline recorded in
// PERF.md) and packs a 64-sample batch.
func benchEngine(b *testing.B) (*Engine, *models.Model, *tensor.Tensor) {
	b.Helper()
	tr, te, err := data.NewSynth(data.SynthConfig{
		Classes: 4, Train: 320, Test: 160, Size: 16, Seed: 21, Noise: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := train.Run(train.Config{
		Model: m, Train: tr, Test: te, BatchSize: 32, Epochs: 1,
		Schedule: optim.ConstSchedule(0.05), Momentum: 0.9, Seed: 2,
	}); err != nil {
		b.Fatal(err)
	}
	calib := tensor.New(32, 3, 16, 16)
	for i := 0; i < 32; i++ {
		img, _ := tr.Sample(i)
		copy(calib.Data()[i*img.Len():(i+1)*img.Len()], img.Data())
	}
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(64, 3, 16, 16)
	for i := 0; i < 64; i++ {
		img, _ := te.Sample(i % te.Len())
		copy(x.Data()[i*img.Len():(i+1)*img.Len()], img.Data())
	}
	return eng, m, x
}

func BenchmarkEngineForward64(b *testing.B) {
	eng, _, x := benchEngine(b)
	if _, err := eng.Forward(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineForward1(b *testing.B) {
	eng, _, x := benchEngine(b)
	one, err := tensor.FromSlice(x.Data()[:3*16*16], 1, 3, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Forward(one); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Forward(one); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloatForward64(b *testing.B) {
	_, m, x := benchEngine(b)
	if _, err := m.Net.Forward(x, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Net.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantizeInto times the engine's input quantize on a
// 16×3×16×16 batch (NCHW float onto the NHWC uint8 grid) under both
// dispatches, in ns per element.
func BenchmarkQuantizeInto(b *testing.B) {
	x := tensor.New(16, 3, 16, 16)
	for i, d := 0, x.Data(); i < len(d); i++ {
		d[i] = float32(i%97)/24 - 2
	}
	g, q := gridFor(-2, 2), &qtensor{}
	for _, simd := range []bool{false, true} {
		prev := tensor.SetSIMD(simd)
		if simd && !tensor.SIMDActive() {
			tensor.SetSIMD(prev)
			continue
		}
		b.Run(fmt.Sprintf("simd=%v", simd), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				quantizeInto(q, x, g)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Len()), "ns/elem")
		})
		tensor.SetSIMD(prev)
	}
}
