package nn_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
)

// TestBackboneResidualsFused pins the residual blocks of ResNet-20 and
// MobileNetV2 to the fused tail: each runs its add, rectifier and skip
// gradient inside its nodes' batch-norm and conv passes, none in passes
// of its own. A model builder change that sends a block back to the
// passes fails here by name.
func TestBackboneResidualsFused(t *testing.T) {
	for _, c := range []struct {
		arch   string
		blocks int
	}{{"resnet20", 9}, {"mobilenetv2", 10}} {
		m, err := models.Build(c.arch, models.Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		blocks := 0
		nn.WalkLayers(m.Layers(), func(l nn.Layer) {
			if r, ok := l.(*nn.Residual); ok {
				blocks++
				if !nn.TailFused(r) {
					t.Errorf("%s: block %s runs its tail as passes of its own", c.arch, r.Name())
				}
			}
		})
		if blocks != c.blocks {
			t.Errorf("%s: %d residual blocks, want %d", c.arch, blocks, c.blocks)
		}
	}
}
