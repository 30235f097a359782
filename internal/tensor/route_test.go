package tensor_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestBackboneConvRoutes pins the strip-route rule on the model zoo —
// SmallCNN (width 1) and ResNet-20, VGGSmall, CifarNet and MobileNetV2
// (width 0.25) — at the bench's 16×16 input and at Micro's 12×12: every
// Conv2D reads its forward panels from a staged strip and its dx off a
// staged dout strip, output rows of 6, 3 or 2 included. A conv the rule
// sends back to the gather or the scatter fails here by name.
func TestBackboneConvRoutes(t *testing.T) {
	for _, c := range []struct {
		arch  string
		width float64
		convs [2]int // Conv2D layers at 12×12 and at 16×16
	}{
		{"smallcnn", 1, [2]int{4, 4}},
		{"resnet20", 0.25, [2]int{21, 21}},
		{"vggsmall", 0.25, [2]int{4, 6}},
		{"cifarnet", 0.25, [2]int{2, 2}},
		{"mobilenetv2", 0.25, [2]int{35, 35}},
	} {
		for i, size := range []int{12, 16} {
			m, err := models.Build(c.arch, models.Config{Classes: 10, InputSize: size, Width: c.width, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			convs := 0
			nn.WalkLayers(m.Layers(), func(l nn.Layer) {
				conv, ok := l.(*nn.Conv2D)
				if !ok {
					return
				}
				convs++
				fwd, dx, err := tensor.StripRoutes(conv.Geom(), conv.Params()[0].Value.Dim(0))
				if err != nil {
					t.Fatal(err)
				}
				if !fwd || !dx {
					t.Errorf("%s at %d×%d: %s %+v off a strip route (forward %v, dx %v)", c.arch, size, size, conv.Name(), conv.Geom(), fwd, dx)
				}
			})
			if convs != c.convs[i] {
				t.Errorf("%s at %d×%d: %d Conv2D layers, want %d", c.arch, size, size, convs, c.convs[i])
			}
		}
	}
}
