package infer

import (
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestConvLoweringPerGeometry pins that the band gather is the lowering of
// every conv, strided ones included: each conv of SmallCNN (stride-2 3×3)
// and ResNet-20 (stride-2 3×3 and 1×1 projections) reports Mode
// "implicit", with the gather route its kernel shape selects.
func TestConvLoweringPerGeometry(t *testing.T) {
	for _, bb := range []struct {
		name  string
		build func(models.Config) (*models.Model, error)
	}{
		{"smallcnn", models.SmallCNN},
		{"resnet20", models.ResNet20},
	} {
		t.Run(bb.name, func(t *testing.T) {
			m, err := bb.build(models.Config{Classes: 4, InputSize: 12, Width: 0.25, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			calib := tensor.New(8, m.InC, m.InH, m.InW)
			calib.FillNormal(tensor.NewRNG(3), 0, 1)
			eng, err := Compile(m, Config{Calibration: calib})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int{} // gather route → convs in the model
			strided := map[string]bool{}
			nn.WalkLayers(m.Layers(), func(l nn.Layer) {
				if c, ok := l.(*nn.Conv2D); ok {
					route := "generic band"
					if g := c.Geom(); g.KH == 3 && g.KW == 3 {
						route = "3x3 staged band"
					}
					want[route]++
					if c.Geom().Stride > 1 {
						strided[route] = true
					}
				}
			})
			if !strided["3x3 staged band"] || (bb.name == "resnet20" && !strided["generic band"]) {
				t.Fatalf("fixture lost its strided convs: %v", strided)
			}
			got := map[string]int{}
			for _, l := range eng.ConvLowerings() {
				if l.Mode != "implicit" {
					t.Errorf("%s: lowering mode %q, want implicit", l.Layer, l.Mode)
				}
				got[l.Why]++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lowerings by route = %v, model convs by route = %v", got, want)
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
