package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperimentMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	var out strings.Builder
	csv := filepath.Join(t.TempDir(), "out.csv")
	if err := run([]string{"-exp", "fig1", "-scale", "micro", "-csv", csv}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "fig1") {
		t.Errorf("output missing fig1 header:\n%s", out.String())
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.Contains(string(data), "epoch") {
		t.Errorf("csv missing header: %q", string(data)[:min(len(data), 80)])
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("no -exp/-all did not error")
	}
	if err := run([]string{"-exp", "nosuch"}, &out); err == nil {
		t.Error("unknown experiment did not error")
	}
	if err := run([]string{"-exp", "fig1", "-scale", "nosuch"}, &out); err == nil {
		t.Error("unknown scale did not error")
	}
	// The retired kernel and serving harnesses: their figures are the
	// repository benchmark's rows now.
	for _, args := range [][]string{{"-kernels"}, {"-benchout", "x.json"}, {"-exp", "infer"}} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v did not error", args)
		}
	}
}
