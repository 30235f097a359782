package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/energy"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/train"
)

var updateDigests = flag.Bool("update-digests", false, "TestBackboneDigests, TestDistDigests: rewrite testdata/backbone_digests.json and testdata/dist_digests.json with the tree's digests")

const digestsFile = "testdata/backbone_digests.json"

// backboneDigest pins one backbone's numerics end to end: SHA-256 digests
// of its checkpoint bytes at init, its energy.Snapshot rows and checkpoint
// bytes after a short APT run, that run's per-epoch history, and the int8
// engine's logits (absent for backbones Compile rejects), keyed by field.
type backboneDigest map[string]string

// TestBackboneDigests holds every backbone's parameter names, checkpoint
// bytes, trained weights, energy rows and int8 logits to the committed
// testdata/backbone_digests.json, so a refactor that claims to change no
// numerics fails by backbone and field if it does. A change that moves
// numerics on purpose rewrites the file with
//
//	go test -run TestBackboneDigests . -update-digests
//
// and quotes the diff. The digests pin the portable float dispatch on
// amd64 only.
func TestBackboneDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pin amd64 rounding; the Go compiler may fuse x*y+z into one FMA on %s", runtime.GOARCH)
	}
	defer tensor.SetSIMD(tensor.SetSIMD(false))
	trainSet, testSet, err := data.NewSynth(data.SynthConfig{Classes: 4, Train: 64, Test: 32, Size: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]backboneDigest{}
	for _, name := range []string{"smallcnn", "resnet20", "vggsmall", "cifarnet", "mobilenetv2"} {
		d, err := digestBackbone(name, trainSet, testSet, name != "mobilenetv2")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = d
	}
	pinDigests(t, digestsFile, got, digestFields)
}

// pinDigests compares got, field by field, with the digests committed in
// file, or rewrites file with got under -update-digests.
func pinDigests(t *testing.T, file string, got map[string]backboneDigest, fields []string) {
	t.Helper()
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]backboneDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for name, g := range got {
		w := want[name]
		for _, field := range fields {
			if g[field] != w[field] {
				t.Errorf("%s %s: digest %q, pinned %q (rerun with -update-digests only if the change means to move numerics)", name, field, g[field], w[field])
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d entries, the test digests %d", file, len(want), len(got))
	}
}

var digestFields = []string{"init_checkpoint", "snapshot", "trained_checkpoint", "history", "int8_logits"}

func digestBackbone(name string, trainSet, testSet data.Dataset, int8 bool) (backboneDigest, error) {
	d := backboneDigest{}
	m, err := models.Build(name, models.Config{Classes: 4, InputSize: 16, Width: 0.25, Seed: 11})
	if err != nil {
		return d, err
	}
	if d["init_checkpoint"], err = checkpointDigest(m); err != nil {
		return d, err
	}
	cfg := core.DefaultConfig()
	cfg.Interval = 2
	ctrl, err := core.NewController(cfg, m.Params())
	if err != nil {
		return d, err
	}
	hist, err := train.Run(train.Config{
		Model: m, Train: trainSet, Test: testSet, BatchSize: 16, Epochs: 2,
		Schedule: optim.ConstSchedule(0.05), Momentum: 0.9, WeightDecay: 1e-4,
		APT: ctrl, Seed: 3,
	})
	if err != nil {
		return d, err
	}
	h := sha256.New()
	for _, lc := range energy.Snapshot(m.Layers()) {
		fmt.Fprintf(h, "%s %d %d %d %t\n", lc.Name, lc.MACs, lc.Bits, lc.Params, lc.Master)
	}
	d["snapshot"] = hex.EncodeToString(h.Sum(nil))
	if d["trained_checkpoint"], err = checkpointDigest(m); err != nil {
		return d, err
	}
	h.Reset()
	for _, e := range hist.Epochs {
		fmt.Fprintf(h, "%x %x %x %d %x\n", math.Float64bits(e.TrainLoss), math.Float64bits(e.TestAcc),
			math.Float64bits(e.CumEnergy), e.SizeBits, math.Float64bits(e.MeanBits))
	}
	d["history"] = hex.EncodeToString(h.Sum(nil))
	if !int8 {
		return d, nil
	}
	x, _, err := data.PackBatch(testSet, 16)
	if err != nil {
		return d, err
	}
	eng, err := infer.Compile(m, infer.Config{Calibration: x})
	if err != nil {
		return d, err
	}
	logits, err := eng.Forward(x)
	if err != nil {
		return d, err
	}
	h.Reset()
	if err := binary.Write(h, binary.LittleEndian, logits.Data()); err != nil {
		return d, err
	}
	d["int8_logits"] = hex.EncodeToString(h.Sum(nil))
	return d, nil
}

func checkpointDigest(m *models.Model) (string, error) {
	var buf bytes.Buffer
	if err := models.Save(&buf, m); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
