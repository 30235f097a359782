package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

// TestSmokeRoundTrip runs the whole serving pipeline end to end: train,
// compile, bind an ephemeral port, HTTP classify + readiness + hot
// reload round trips, clean shutdown — the same path CI drives via
// `aptserve -smoke`.
func TestSmokeRoundTrip(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-smoke", "-size", "12", "-train", "96", "-test", "32", "-epochs", "1",
		"-workers", "1", "-max-batch", "4", "-deadline", "30s",
	}, &out)
	if err != nil {
		t.Fatalf("run -smoke: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"/classify -> class",
		"hot reload -> model version 2",
		"clean shutdown",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestModelFlagServesCheckpoint decouples serving from training: a tiny
// model trained here is saved in the bit-packed checkpoint format, then
// aptserve -model loads and serves it without training at startup.
func TestModelFlagServesCheckpoint(t *testing.T) {
	tr, te, err := data.NewSynth(data.SynthConfig{
		Classes: 4, Train: 96, Test: 32, Size: 12, Seed: 8, Noise: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(train.Config{
		Model: m, Train: tr, Test: te, BatchSize: 32, Epochs: 1,
		Schedule: optim.ConstSchedule(0.05), Momentum: 0.9, Seed: 10,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.apt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := models.Save(f, m); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// No -arch/-width: both are read from the checkpoint header.
	var out strings.Builder
	err = run([]string{
		"-smoke", "-model", path, "-size", "12", "-train", "96", "-test", "32",
		"-workers", "1", "-max-batch", "4", "-seed", "8",
	}, &out)
	if err != nil {
		t.Fatalf("run -smoke -model: %v\noutput:\n%s", err, out.String())
	}
	// The smoke probe's hot reload re-reads the checkpoint file, so the
	// -model path proves the full disk-to-swap loop.
	for _, want := range []string{
		"loaded smallcnn (width 1) checkpoint",
		"/classify -> class",
		"hot reload -> model version 2",
		"clean shutdown",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "training smallcnn") {
		t.Errorf("-model still trained at startup:\n%s", out.String())
	}

	// An explicit matching override still works (the legacy invocation).
	var overrideOut strings.Builder
	err = run([]string{
		"-smoke", "-model", path, "-arch", "smallcnn", "-width", "1", "-size", "12",
		"-workers", "1", "-max-batch", "4", "-seed", "8",
	}, &overrideOut)
	if err != nil {
		t.Fatalf("run -smoke -model -arch override: %v\noutput:\n%s", err, overrideOut.String())
	}

	var errOut strings.Builder
	if err := run([]string{"-smoke", "-model", path, "-arch", "resnet20", "-size", "12"}, &errOut); err == nil {
		t.Error("architecture mismatch did not error")
	}
}

func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("unknown flag did not error")
	}
}

// TestAdminServesPprof: -admin's listener answers /debug/pprof/, and the
// server's own handler, the /classify mux, does not.
func TestAdminServesPprof(t *testing.T) {
	stop, at, err := serveAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + at.String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("admin /debug/pprof/: status %d, err %v, body %.200q", resp.StatusCode, err, body)
	}

	srv, err := serve.New(serve.Config{Engine: zeroClassifier{}, InC: 1, InH: 1, InW: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("Server.Handler() /debug/pprof/: status %d, want 404", rec.Code)
	}
}

// zeroClassifier answers class 0 for every sample.
type zeroClassifier struct{}

func (zeroClassifier) Classify(x *tensor.Tensor) ([]int, error) { return make([]int, x.Dim(0)), nil }
