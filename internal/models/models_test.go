package models

import (
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// forwardBackward pushes one batch through the model in both directions
// and checks output shape and gradient sanity.
func forwardBackward(t *testing.T, m *Model, batch int) {
	t.Helper()
	x := tensor.New(batch, m.InC, m.InH, m.InW)
	x.FillNormal(tensor.NewRNG(99), 0, 1)
	out, err := m.Net.Forward(x, true)
	if err != nil {
		t.Fatalf("%s forward: %v", m.Name, err)
	}
	if out.Rank() != 2 || out.Dim(0) != batch || out.Dim(1) != m.Class {
		t.Fatalf("%s output shape %v, want (%d,%d)", m.Name, out.Shape(), batch, m.Class)
	}
	if out.HasNaN() {
		t.Fatalf("%s forward produced NaN", m.Name)
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % m.Class
	}
	var loss nn.SoftmaxCrossEntropy
	_, dlogits, err := loss.Forward(out, labels)
	if err != nil {
		t.Fatalf("%s loss: %v", m.Name, err)
	}
	dx, err := m.Net.Backward(dlogits)
	if err != nil {
		t.Fatalf("%s backward: %v", m.Name, err)
	}
	if !dx.SameShape(x) {
		t.Fatalf("%s input grad shape %v, want %v", m.Name, dx.Shape(), x.Shape())
	}
	nonZeroGrads := 0
	for _, p := range m.Params() {
		if slices.ContainsFunc(p.Grad.Data(), func(v float32) bool { return v != 0 }) {
			nonZeroGrads++
		}
		if p.Grad.HasNaN() {
			t.Fatalf("%s param %s gradient has NaN", m.Name, p.Name)
		}
	}
	if nonZeroGrads < len(m.Params())/2 {
		t.Errorf("%s: only %d/%d params received gradient", m.Name, nonZeroGrads, len(m.Params()))
	}
}

func TestResNet20Shape(t *testing.T) {
	m, err := ResNet20(Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("ResNet20: %v", err)
	}
	// 6n+2 with n=3: stem node + 9 blocks + gap + fc = 12 top-level layers.
	if got := len(m.Layers()); got != 12 {
		t.Errorf("top-level layers = %d, want 12", got)
	}
	forwardBackward(t, m, 2)
}

func TestResNetRejectsBadDepth(t *testing.T) {
	if _, err := ResNet(21, Config{}); err == nil {
		t.Error("depth 21 (not 6n+2) did not error")
	}
	if _, err := ResNet(2, Config{}); err == nil {
		t.Error("depth 2 did not error")
	}
}

func TestResNet110Builds(t *testing.T) {
	m, err := ResNet110(Config{Classes: 10, InputSize: 8, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("ResNet110: %v", err)
	}
	// Stem node + 54 blocks + gap + fc.
	if got := len(m.Layers()); got != 57 {
		t.Errorf("top-level layers = %d, want 57", got)
	}
	// One cheap forward to prove the deep graph is wired correctly.
	x := tensor.New(1, 3, 8, 8)
	x.FillNormal(tensor.NewRNG(5), 0, 1)
	out, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	if out.Dim(1) != 10 {
		t.Errorf("output classes = %d", out.Dim(1))
	}
}

func TestMobileNetV2ForwardBackward(t *testing.T) {
	m, err := MobileNetV2(Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("MobileNetV2: %v", err)
	}
	forwardBackward(t, m, 2)
}

func TestCifarNetForwardBackward(t *testing.T) {
	m, err := CifarNet(Config{Classes: 10, InputSize: 16, Width: 0.5, Seed: 1})
	if err != nil {
		t.Fatalf("CifarNet: %v", err)
	}
	forwardBackward(t, m, 2)
}

func TestVGGSmallForwardBackward(t *testing.T) {
	m, err := VGGSmall(Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("VGGSmall: %v", err)
	}
	forwardBackward(t, m, 2)
}

func TestVGGSmallAdaptsStages(t *testing.T) {
	// 12 halves twice (12 -> 6 -> 3): two pooling stages.
	m, err := VGGSmall(Config{Classes: 4, InputSize: 12, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("VGGSmall(12): %v", err)
	}
	forwardBackward(t, m, 1)
	if _, err := VGGSmall(Config{Classes: 4, InputSize: 7, Width: 0.25, Seed: 1}); err == nil {
		t.Error("odd input size did not error")
	}
}

func TestSmallCNNForwardBackward(t *testing.T) {
	m, err := SmallCNN(Config{Classes: 4, InputSize: 12, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	forwardBackward(t, m, 2)
}

func TestSmallCNNQuantActReplacesRectifiers(t *testing.T) {
	m, err := SmallCNNQuantAct(Config{Classes: 4, InputSize: 12, Seed: 1}, 6)
	if err != nil {
		t.Fatalf("SmallCNNQuantAct: %v", err)
	}
	var aq, relu int
	nn.WalkLayers(m.Layers(), func(l nn.Layer) {
		switch l.(type) {
		case *nn.ActQuant:
			aq++
		case *nn.ReLU:
			relu++
		}
	})
	if aq != 4 || relu != 0 {
		t.Fatalf("layers: %d ActQuant, %d ReLU; want 4, 0", aq, relu)
	}
	// Clip parameters join Params(): 4 extra alphas vs the plain model.
	plain, err := SmallCNN(Config{Classes: 4, InputSize: 12, Seed: 1})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	if len(m.Params()) != len(plain.Params())+4 {
		t.Errorf("params: %d vs plain %d, want +4 alphas", len(m.Params()), len(plain.Params()))
	}
	forwardBackward(t, m, 2)
}

func TestWidthScalesParameterCount(t *testing.T) {
	narrow, err := ResNet20(Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("ResNet20: %v", err)
	}
	wide, err := ResNet20(Config{Classes: 10, InputSize: 16, Width: 1.0, Seed: 1})
	if err != nil {
		t.Fatalf("ResNet20: %v", err)
	}
	count := func(m *Model) int {
		n := 0
		for _, p := range m.Params() {
			n += p.Value.Len()
		}
		return n
	}
	if count(wide) < 8*count(narrow) {
		t.Errorf("width 1.0 (%d params) should be ~16x width 0.25 (%d params)",
			count(wide), count(narrow))
	}
}

func TestDeterministicInit(t *testing.T) {
	a, err := ResNet20(Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 7})
	if err != nil {
		t.Fatalf("ResNet20: %v", err)
	}
	b, err := ResNet20(Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 7})
	if err != nil {
		t.Fatalf("ResNet20: %v", err)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param lists differ")
	}
	for i := range pa {
		for j := range pa[i].Value.Data() {
			if pa[i].Value.Data()[j] != pb[i].Value.Data()[j] {
				t.Fatalf("param %s differs at %d between same-seed builds", pa[i].Name, j)
			}
		}
	}
}

func TestModelMACsPositive(t *testing.T) {
	builders := map[string]func(Config) (*Model, error){
		"resnet20":    ResNet20,
		"mobilenetv2": MobileNetV2,
		"cifarnet":    CifarNet,
		"vggsmall":    VGGSmall,
		"smallcnn":    SmallCNN,
	}
	for name, build := range builders {
		m, err := build(Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Net.MACs() <= 0 {
			t.Errorf("%s MACs = %d, want > 0", name, m.Net.MACs())
		}
	}
}
