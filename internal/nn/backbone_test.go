package nn_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestBackboneResidualsFused pins the residual blocks of ResNet-20 and
// MobileNetV2 to the fused tail: each runs its add, rectifier and skip
// gradient inside its nodes' batch-norm and conv passes, none in passes
// of its own. The one exception is MobileNetV2's first inverted residual
// at width 0.125, where t = 1 and 4 → 4 channels give it an identity
// shortcut and a depthwise head node, which the tail cannot run inside:
// it must be the only block on the passes. A model builder change that
// moves a block across fails here by name.
func TestBackboneResidualsFused(t *testing.T) {
	for _, c := range []struct {
		arch    string
		width   float64
		blocks  int
		unfused []string // the blocks on the passes
	}{
		{"resnet20", 0.25, 9, nil},
		{"mobilenetv2", 0.25, 10, nil},
		{"mobilenetv2", 0.125, 12, []string{"mobilenetv2.ir0_0"}},
	} {
		m, err := models.Build(c.arch, models.Config{Classes: 10, InputSize: 16, Width: c.width, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		blocks := 0
		var unfused []string
		nn.WalkLayers(m.Layers(), func(l nn.Layer) {
			if r, ok := l.(*nn.Residual); ok {
				blocks++
				if !nn.TailFused(r) {
					unfused = append(unfused, r.Name())
				}
			}
		})
		if blocks != c.blocks {
			t.Errorf("%s width %g: %d residual blocks, want %d", c.arch, c.width, blocks, c.blocks)
		}
		if fmt.Sprint(unfused) != fmt.Sprint(c.unfused) {
			t.Errorf("%s width %g: blocks %v run their tail as passes of their own, want %v", c.arch, c.width, unfused, c.unfused)
		}
	}
}

// TestBackwardParamsMatchesBackward pins the trainers' backward to the
// full one on the five backbones (Width 0.25, 16×16) and on SmallCNN with
// quantized activations (whose stem runs as a chain, its conv bare), under
// both dispatches at 1, 2, 3 and 8 workers: after one training step through
// BackwardParams, every parameter gradient and every batch-norm running
// statistic is the bytes of the same step through Backward, and the first
// conv has never allocated its input-gradient arena.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	x := tensor.New(6, 3, 16, 16)
	x.FillNormal(tensor.NewRNG(3), 0, 1)
	labels := []int{0, 3, 9, 1, 3, 7}
	// step trains a fresh model one step and returns its parameter
	// gradients and running statistics, then its first conv.
	step := func(t *testing.T, arch string, params bool) (got [][]uint64, stem *nn.Conv2D) {
		cfg := models.Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 2}
		m, err := models.Build(arch, cfg)
		if arch == "smallcnn-qact" {
			m, err = models.SmallCNNQuantAct(cfg, 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		logits, err := m.Net.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		_, dlogits, err := nn.SoftmaxCrossEntropy{}.Forward(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if params {
			err = m.Net.BackwardParams(dlogits)
		} else {
			_, err = m.Net.Backward(dlogits)
		}
		if err != nil {
			t.Fatal(err)
		}
		bits := func(v []float32) (b []uint64) {
			for _, f := range v {
				b = append(b, uint64(math.Float32bits(f)))
			}
			return b
		}
		for _, p := range m.Params() {
			got = append(got, bits(p.Grad.Data()))
		}
		for _, bn := range nn.CollectBatchNorms(m.Layers()) {
			mean, variance := bn.RunningStats()
			for _, s := range [][]float64{mean, variance} {
				var b []uint64
				for _, f := range s {
					b = append(b, math.Float64bits(f))
				}
				got = append(got, b)
			}
		}
		nn.WalkLayers(m.Layers(), func(l nn.Layer) {
			if c, ok := l.(*nn.Conv2D); ok && stem == nil {
				stem = c
			}
		})
		return got, stem
	}
	for _, arch := range []string{"smallcnn", "resnet20", "mobilenetv2", "vggsmall", "cifarnet", "smallcnn-qact"} {
		t.Run(arch, func(t *testing.T) {
			nn.EachDispatch(t, func(t *testing.T) {
				for _, workers := range []int{1, 2, 3, 8} {
					tensor.SetMaxWorkers(workers)
					want, full := step(t, arch, false)
					got, stem := step(t, arch, true)
					if stem == nil || nn.DxArenaFloats(full) == 0 {
						t.Fatalf("no first conv, or Backward left its dx arena empty")
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						for i := range want {
							if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
								t.Fatalf("workers=%d: gradient or statistic %d differs from Backward's", workers, i)
							}
						}
						t.Fatalf("workers=%d: %d gradients and statistics, Backward %d", workers, len(got), len(want))
					}
					if f := nn.DxArenaFloats(stem); f != 0 {
						t.Errorf("workers=%d: after BackwardParams the first conv holds a %d-float dx arena", workers, f)
					}
				}
			})
		})
	}
}
