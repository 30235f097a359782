package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
)

func TestInspectReportsLayers(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-model", "smallcnn", "-size", "12", "-width", "0.5", "-bits", "6"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"eps (Eq.2)", "quantized size", "forward MACs", "per-MAC energy"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if !strings.Contains(s, "18.8%") && !strings.Contains(s, "% of fp32") {
		t.Errorf("output missing fp32 ratio: %s", s)
	}
	if want := "kernel dispatch: "; !strings.Contains(s, want) {
		t.Errorf("output missing %q", want)
	}
	if want := "int8 conv: NHWC row strip (all geometries)\n"; !strings.HasSuffix(s, want) {
		t.Errorf("output does not end with the conv lowering line %q:\n%s", want, s)
	}
}

func TestInspectAllBackbones(t *testing.T) {
	for _, m := range []string{"resnet20", "mobilenetv2", "cifarnet", "vggsmall", "smallcnn"} {
		var out strings.Builder
		if err := run([]string{"-model", m, "-size", "16", "-width", "0.25", "-bits", "8"}, &out); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

func TestInspectRejectsBadModel(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "nosuch"}, &out); err == nil {
		t.Error("unknown model did not error")
	}
}

func TestInspectLoadsCheckpoint(t *testing.T) {
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 12, Seed: 42})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	for _, p := range m.Params() {
		if err := p.SetBits(5); err != nil {
			t.Fatalf("SetBits: %v", err)
		}
	}
	path := filepath.Join(t.TempDir(), "m.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := models.Save(f, m); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var out strings.Builder
	if err := run([]string{"-model", "smallcnn", "-classes", "4", "-size", "12", "-seed", "42", "-load", path}, &out); err != nil {
		t.Fatalf("run -load: %v", err)
	}
	if !strings.Contains(out.String(), "5") {
		t.Errorf("inspection of a 5-bit checkpoint shows no 5-bit layers:\n%s", out.String())
	}
	if err := run([]string{"-model", "smallcnn", "-load", "/nonexistent"}, &out); err == nil {
		t.Error("missing checkpoint did not error")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		bits int64
		want string
	}{
		{8, "1B"},
		{8 * 2048, "2.00KiB"},
		{8 * 3 << 20, "3.00MiB"},
	}
	for _, tc := range cases {
		if got := fmtBytes(tc.bits); got != tc.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", tc.bits, got, tc.want)
		}
	}
}
