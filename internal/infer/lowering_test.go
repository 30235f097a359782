package infer

import (
	"fmt"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestConvLoweringPerGeometry pins the strip route as the lowering of
// every conv of the four backbones the engine serves, at the 12×12 Micro
// input and at 16×16: each reports Mode "implicit" and the strip its
// kernel width selects — folded exactly when KW·InC is not a multiple of
// 4 (the 3-channel stems) — with its panel count and a wide-panel count
// no larger. The strided convs (stride-2 3×3 and ResNet-20's 1×1
// projections) and ResNet-20's output rows of 3 at 12×12 are in the set.
func TestConvLoweringPerGeometry(t *testing.T) {
	for _, name := range []string{"smallcnn", "resnet20", "vggsmall", "cifarnet"} {
		t.Run(name, func(t *testing.T) {
			for _, size := range []int{12, 16} {
				t.Run(fmt.Sprint(size), func(t *testing.T) {
					m, err := models.Build(name, models.Config{Classes: 4, InputSize: size, Width: 0.25, Seed: 6})
					if err != nil {
						t.Fatal(err)
					}
					calib := tensor.New(8, m.InC, m.InH, m.InW)
					calib.FillNormal(tensor.NewRNG(3), 0, 1)
					eng, err := Compile(m, Config{Calibration: calib})
					if err != nil {
						t.Fatal(err)
					}
					var convs []*nn.Conv2D
					nn.WalkLayers(m.Layers(), func(l nn.Layer) {
						if c, ok := l.(*nn.Conv2D); ok {
							convs = append(convs, c)
						}
					})
					lows := eng.ConvLowerings()
					if len(lows) != len(convs) {
						t.Fatalf("%d lowerings for %d convs", len(lows), len(convs))
					}
					for i, l := range lows {
						g := convs[i].Geom()
						fold := g.KW*g.InC%4 != 0
						why := map[bool]string{false: "row strip", true: "folded row strip"}[fold]
						if l.Mode != "implicit" || l.Why != why || l.Fold != fold {
							t.Errorf("%s (%+v): lowering %+v, want implicit %q fold=%v", l.Layer, g, l, why, fold)
						}
						if panels := (convs[i].Params()[0].Value.Dim(0) + 7) / 8; l.Panels != panels {
							t.Errorf("%s: %d panels, want %d", l.Layer, l.Panels, panels)
						}
					}
				})
			}
		})
	}
}

// TestForwardProfileMatchesForward pins that profiling changes no output
// bit and yields a sane stage split (stages sum to at most the total,
// every stage non-negative, conv stages actually attributed).
func TestForwardProfileMatchesForward(t *testing.T) {
	m, te, calib := trainedSmallCNN(t)
	eng, err := Compile(m, Config{Calibration: calib})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x, _ := testBatch(t, te, 24)
	ref, err := eng.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, prof, err := eng.ForwardProfile(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data() {
		if v != ref.Data()[i] {
			t.Fatalf("profiled logit %d = %v, plain %v", i, v, ref.Data()[i])
		}
	}
	if prof.Total <= 0 {
		t.Fatalf("profile total %v, want > 0", prof.Total)
	}
	if prof.Im2col < 0 || prof.GEMM < 0 || prof.Requant < 0 || prof.Other < 0 {
		t.Fatalf("negative stage in profile %+v", prof)
	}
	if sum := prof.Im2col + prof.GEMM + prof.Requant + prof.Other; sum > prof.Total+prof.Total/8 {
		t.Fatalf("stage sum %v exceeds total %v", sum, prof.Total)
	}
	// The conv band driver's phase clock must attribute every hook: gather,
	// GEMM and the band's own requant epilogue.
	if prof.Im2col <= 0 || prof.GEMM <= 0 || prof.Requant <= 0 {
		t.Fatalf("profile left a conv stage unattributed: %+v", prof)
	}
}
