package tensor_test

import (
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestBackboneConvRoutes pins the strip-route rule on the benchmark's
// backbones, SmallCNN (width 1) and ResNet-20 (width 0.25): at the bench's
// 16×16 input every Conv2D reads its forward panels from a staged strip and
// its dx off a staged dout strip; at Micro's 12×12 input the convs listed
// by name still gather (output widths 6 and 3), so a change to the rule
// shows here by name.
func TestBackboneConvRoutes(t *testing.T) {
	for _, c := range []struct {
		arch   string
		width  float64
		size   int
		convs  int
		gather []string // "name: fwd|dx|fwd+dx" for every conv off a strip route
	}{
		{"smallcnn", 1, 16, 4, nil},
		{"resnet20", 0.25, 16, 21, nil},
		{"smallcnn", 1, 12, 4, []string{"smallcnn.b2.conv: fwd+dx", "smallcnn.b3.conv: fwd+dx", "smallcnn.b4.conv: fwd+dx"}},
		{"resnet20", 0.25, 12, 21, []string{
			"resnet20.s2b0.conv1: fwd+dx", "resnet20.s2b0.conv2: fwd+dx", "resnet20.s2b0.down: fwd+dx",
			"resnet20.s2b1.conv1: fwd+dx", "resnet20.s2b1.conv2: fwd+dx",
			"resnet20.s2b2.conv1: fwd+dx", "resnet20.s2b2.conv2: fwd+dx",
			"resnet20.s3b0.conv1: fwd+dx", "resnet20.s3b0.conv2: fwd+dx", "resnet20.s3b0.down: fwd+dx",
			"resnet20.s3b1.conv1: fwd+dx", "resnet20.s3b1.conv2: fwd+dx",
			"resnet20.s3b2.conv1: fwd+dx", "resnet20.s3b2.conv2: fwd+dx",
		}},
	} {
		m, err := models.Build(c.arch, models.Config{Classes: 10, InputSize: c.size, Width: c.width, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
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
			switch {
			case !fwd && !dx:
				got = append(got, conv.Name()+": fwd+dx")
			case !fwd:
				got = append(got, conv.Name()+": fwd")
			case !dx:
				got = append(got, conv.Name()+": dx")
			}
		})
		if convs != c.convs {
			t.Errorf("%s at %d×%d: %d Conv2D layers, want %d", c.arch, c.size, c.size, convs, c.convs)
		}
		if !slices.Equal(got, c.gather) {
			t.Errorf("%s at %d×%d: convs off the strip routes %q, want %q", c.arch, c.size, c.size, got, c.gather)
		}
	}
}
