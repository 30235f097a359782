package models

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// trainedModel returns a model whose weights, quantization states and BN
// running stats have been perturbed away from initialization, with a mix
// of quantized, fp32 and master-copy parameters.
func trainedModel(t *testing.T) *Model {
	t.Helper()
	m, err := SmallCNN(Config{Classes: 4, InputSize: 12, Seed: 3})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	rng := tensor.NewRNG(10)
	for i, p := range m.Params() {
		p.Value.FillNormal(rng, 0, 1)
		switch i % 3 {
		case 0:
			if err := p.SetBits(6); err != nil {
				t.Fatalf("SetBits: %v", err)
			}
		case 1:
			p.EnableMaster()
			if err := p.SetBits(4); err != nil {
				t.Fatalf("SetBits: %v", err)
			}
		}
	}
	// Push data through in training mode so BN stats move.
	x := tensor.New(4, 3, 12, 12)
	x.FillNormal(rng, 1, 2)
	if _, err := m.Net.Forward(x, true); err != nil {
		t.Fatalf("forward: %v", err)
	}
	return m
}

func TestCheckpointRoundTrip(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatalf("Save: %v", err)
	}

	fresh, err := SmallCNN(Config{Classes: 4, InputSize: 12, Seed: 99})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	if err := Load(bytes.NewReader(buf.Bytes()), fresh); err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Parameter values, bits and master copies restored.
	orig, got := m.Params(), fresh.Params()
	for i := range orig {
		if orig[i].Bits() != got[i].Bits() {
			t.Errorf("%s bits %d != %d", orig[i].Name, got[i].Bits(), orig[i].Bits())
		}
		for j := range orig[i].Value.Data() {
			a, b := orig[i].Value.Data()[j], got[i].Value.Data()[j]
			if diff := a - b; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("%s value[%d] %v != %v", orig[i].Name, j, b, a)
			}
		}
		if (orig[i].Master == nil) != (got[i].Master == nil) {
			t.Errorf("%s master presence mismatch", orig[i].Name)
		}
	}

	// Identical evaluation behaviour.
	rng := tensor.NewRNG(20)
	x := tensor.New(2, 3, 12, 12)
	x.FillNormal(rng, 0, 1)
	outA, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatalf("forward A: %v", err)
	}
	outB, err := fresh.Net.Forward(x, false)
	if err != nil {
		t.Fatalf("forward B: %v", err)
	}
	for i := range outA.Data() {
		diff := outA.Data()[i] - outB.Data()[i]
		if diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("loaded model diverges at logit %d: %v vs %v", i, outA.Data()[i], outB.Data()[i])
		}
	}
}

func TestCheckpointSizeReflectsQuantization(t *testing.T) {
	// A fully 6-bit-quantized model must checkpoint much smaller than the
	// same model in fp32.
	quantized, err := SmallCNN(Config{Classes: 4, InputSize: 12, Seed: 3})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	rng := tensor.NewRNG(11)
	for _, p := range quantized.Params() {
		p.Value.FillNormal(rng, 0, 1)
		if err := p.SetBits(6); err != nil {
			t.Fatalf("SetBits: %v", err)
		}
	}
	var qbuf bytes.Buffer
	if err := Save(&qbuf, quantized); err != nil {
		t.Fatalf("Save quantized: %v", err)
	}

	full, err := SmallCNN(Config{Classes: 4, InputSize: 12, Seed: 3})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	for _, p := range full.Params() {
		p.Value.FillNormal(rng, 0, 1)
	}
	var fbuf bytes.Buffer
	if err := Save(&fbuf, full); err != nil {
		t.Fatalf("Save fp32: %v", err)
	}
	if qbuf.Len() >= fbuf.Len()/2 {
		t.Errorf("6-bit checkpoint %dB not meaningfully smaller than fp32 %dB", qbuf.Len(), fbuf.Len())
	}
}

// TestLoadAutoFile round-trips a checkpoint through disk via the
// file-path helper the serving reload path uses.
func TestLoadAutoFile(t *testing.T) {
	m := trainedModel(t)
	path := filepath.Join(t.TempDir(), "ckpt.apt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(f, m); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAutoFile(path, "", 0, Config{Classes: 4, InputSize: 12, Seed: 99})
	if err != nil {
		t.Fatalf("LoadAutoFile: %v", err)
	}
	if got.Name != m.Name || got.Width != m.Width {
		t.Errorf("loaded %s (width %g), want %s (width %g)", got.Name, got.Width, m.Name, m.Width)
	}
	if _, err := LoadAutoFile(filepath.Join(t.TempDir(), "missing.apt"), "", 0, Config{}); err == nil {
		t.Error("missing file did not error")
	}
}

func TestLoadRejectsMismatches(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatalf("Save: %v", err)
	}

	other, err := ResNet20(Config{Classes: 4, InputSize: 12, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("ResNet20: %v", err)
	}
	if err := Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("loading into a different architecture did not error")
	}
	if err := Load(strings.NewReader("garbage"), m); err == nil {
		t.Error("garbage stream did not error")
	}
}

// TestLoadRejectsTruncatedPayload hands Load a checkpoint whose first
// packed record lost its payload's last byte: the decoder must report it,
// not index past the payload.
func TestLoadRejectsTruncatedPayload(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var file checkpointFile
	if err := gob.NewDecoder(&buf).Decode(&file); err != nil {
		t.Fatal(err)
	}
	truncated := false
	for _, rec := range file.Params {
		if rec.Packed != nil && len(rec.Packed.Data) > 0 {
			rec.Packed.Data = rec.Packed.Data[:len(rec.Packed.Data)-1]
			truncated = true
			break
		}
	}
	if !truncated {
		t.Fatal("checkpoint has no packed payload to truncate")
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&file); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, m); err == nil || !strings.Contains(err.Error(), "too short") {
		t.Errorf("Load of a truncated payload: %v, want a too-short error", err)
	}
}

// TestLoadRejectsHostileShape hands Load a ~1 KB record that claims 2^24
// elements on a degenerate grid (Eps 0, which decodes without reading a
// payload) for a parameter of the model's own name: the claimed shape
// must be refused before anything of that size is allocated.
func TestLoadRejectsHostileShape(t *testing.T) {
	m := trainedModel(t)
	const n = 1 << 24
	file := checkpointFile{Model: m.Name, Params: []paramRecord{{
		Name: m.Params()[0].Name, Shape: []int{n}, Bits: 6,
		Packed: &quant.Packed{Bits: 6, Count: n, Data: make([]byte, 1024)},
	}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&file); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := Load(&buf, m)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a record whose shape the model does not have")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("Load allocated %d bytes refusing a %d-byte record, want < 1 MB", grew, size)
	}
}

func TestBNStatsRestored(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatalf("Save: %v", err)
	}
	fresh, err := SmallCNN(Config{Classes: 4, InputSize: 12, Seed: 99})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	if err := Load(bytes.NewReader(buf.Bytes()), fresh); err != nil {
		t.Fatalf("Load: %v", err)
	}
	origBNs := nn.CollectBatchNorms(m.Layers())
	gotBNs := nn.CollectBatchNorms(fresh.Layers())
	if len(origBNs) == 0 || len(origBNs) != len(gotBNs) {
		t.Fatalf("BN counts: %d vs %d", len(origBNs), len(gotBNs))
	}
	for i := range origBNs {
		om, ov := origBNs[i].RunningStats()
		gm, gv := gotBNs[i].RunningStats()
		for c := range om {
			if om[c] != gm[c] || ov[c] != gv[c] {
				t.Fatalf("BN %s stats differ after load", origBNs[i].Name())
			}
		}
	}
}

var _ = nn.Param{}

// TestLoadAutoInfersArchAndWidth checks the checkpoint header end to
// end: a model saved at a non-default width is rebuilt by LoadAuto with
// no overrides, explicit overrides still apply, and a legacy checkpoint
// (no width field — gob omits zero values, so Width 0 is exactly what an
// old file decodes to) falls back to the caller's width.
func TestLoadAutoInfersArchAndWidth(t *testing.T) {
	cfg := Config{Classes: 4, InputSize: 12, Width: 0.5, Seed: 3}
	m, err := SmallCNN(cfg)
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	if m.Width != 0.5 {
		t.Fatalf("Model.Width = %g, want 0.5", m.Width)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatalf("Save: %v", err)
	}

	got, err := LoadAuto(bytes.NewReader(buf.Bytes()), "", 0, Config{Classes: 4, InputSize: 12, Seed: 99})
	if err != nil {
		t.Fatalf("LoadAuto: %v", err)
	}
	if got.Name != "smallcnn" || got.Width != 0.5 {
		t.Fatalf("LoadAuto rebuilt %q width %g, want smallcnn width 0.5", got.Name, got.Width)
	}
	for i, p := range m.Params() {
		q := got.Params()[i]
		if !bytes.Equal(f32Bytes(p.Value.Data()), f32Bytes(q.Value.Data())) {
			t.Fatalf("parameter %s differs after LoadAuto", p.Name)
		}
	}

	// Explicit overrides matching the header load too.
	if _, err := LoadAuto(bytes.NewReader(buf.Bytes()), "smallcnn", 0.5, Config{Classes: 4, InputSize: 12}); err != nil {
		t.Fatalf("LoadAuto with matching overrides: %v", err)
	}
	// A wrong arch override fails on the architecture check.
	if _, err := LoadAuto(bytes.NewReader(buf.Bytes()), "cifarnet", 0.5, Config{Classes: 4, InputSize: 12}); err == nil {
		t.Error("LoadAuto with mismatched arch override did not error")
	}
	// A wrong width override fails on parameter shapes.
	if _, err := LoadAuto(bytes.NewReader(buf.Bytes()), "", 1, Config{Classes: 4, InputSize: 12}); err == nil {
		t.Error("LoadAuto with mismatched width override did not error")
	}
}

func f32Bytes(v []float32) []byte {
	out := make([]byte, 0, 4*len(v))
	for _, f := range v {
		u := math.Float32bits(f)
		out = append(out, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return out
}
