package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

const distDigestsFile = "testdata/dist_digests.json"

// distDigestRuns are the parameter-server configurations TestDistDigests
// pins: one worker per uplink codec with APT off and with APT plus the
// bit-packed broadcast on, and dist_ps's shape (two workers, strict
// barrier, 8-bit uplink, APT, packed broadcast).
var distDigestRuns = []struct {
	name    string
	workers int
	codec   func(seed uint64) dist.GradCodec
	apt     bool
}{
	{"w1_fp32", 1, func(uint64) dist.GradCodec { return dist.FP32Codec{} }, false},
	{"w1_fp32_apt", 1, func(uint64) dist.GradCodec { return dist.FP32Codec{} }, true},
	{"w1_8bit", 1, func(uint64) dist.GradCodec { return dist.KBitCodec{Bits: 8} }, false},
	{"w1_8bit_apt", 1, func(uint64) dist.GradCodec { return dist.KBitCodec{Bits: 8} }, true},
	{"w1_ternary", 1, func(s uint64) dist.GradCodec { return dist.NewTernaryCodec(s ^ 0x7E1) }, false},
	{"w1_ternary_apt", 1, func(s uint64) dist.GradCodec { return dist.NewTernaryCodec(s ^ 0x7E1) }, true},
	{"w2_8bit_apt", 2, func(uint64) dist.GradCodec { return dist.KBitCodec{Bits: 8} }, true},
}

// TestDistDigests holds the parameter server's trajectories to the
// committed testdata/dist_digests.json: per run, SHA-256 digests of the
// final replica's weights, master copies, grids and batch-norm statistics
// ("weights") and of its traffic, round count, per-epoch accuracy and
// mean bitwidth ("run"). The runs use Micro geometry on plain synthetic
// data (no augmentation wrapper), the portable float dispatch and amd64
// only, as TestBackboneDigests does; -update-digests rewrites the file.
func TestDistDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pin amd64 rounding; the Go compiler may fuse x*y+z into one FMA on %s", runtime.GOARCH)
	}
	defer tensor.SetSIMD(tensor.SetSIMD(false))
	s := experiments.Micro()
	const classes = 4
	trainSet, testSet, err := data.NewSynth(data.SynthConfig{
		Classes: classes, Train: s.TrainN, Test: s.TestN, Size: s.InputSize, Noise: s.Noise, Seed: s.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]backboneDigest{}
	for _, r := range distDigestRuns {
		cfg := dist.Config{
			Workers: r.workers,
			Build: func() (*models.Model, error) {
				return models.SmallCNN(models.Config{Classes: classes, InputSize: s.InputSize, Width: s.Width, Seed: s.Seed})
			},
			Train: trainSet, Test: testSet,
			BatchSize: s.Batch, Epochs: s.Epochs, LR: s.LR, Momentum: 0.9,
			Codec: r.codec(s.Seed), Seed: s.Seed,
		}
		if r.apt {
			apt := core.DefaultConfig()
			apt.Interval = 1
			cfg.APT, cfg.QuantBroadcast = &apt, true
		}
		st, err := dist.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = backboneDigest{"weights": netStateDigest(st.Final), "run": distRunDigest(st)}
	}
	pinDigests(t, distDigestsFile, got, []string{"weights", "run"})
}

func netStateDigest(ns *nn.NetState) string {
	h := sha256.New()
	for _, p := range ns.Params {
		fmt.Fprintf(h, "%s %d %d\n", p.Name, len(p.Value), len(p.Master))
		binary.Write(h, binary.LittleEndian, p.Value)
		binary.Write(h, binary.LittleEndian, p.Master)
		if q := p.Quant; q != nil {
			fmt.Fprintf(h, "%d %x %x %x\n", q.Bits, math.Float32bits(q.Min), math.Float32bits(q.Max), math.Float32bits(q.Eps))
		}
	}
	for _, bn := range ns.BatchNorms {
		fmt.Fprintf(h, "%s\n", bn.Name)
		binary.Write(h, binary.LittleEndian, bn.Mean)
		binary.Write(h, binary.LittleEndian, bn.Var)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func distRunDigest(st *dist.Stats) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %x\n", st.Rounds, st.UpBytes, st.DownBytes, math.Float64bits(st.MeanBits))
	for _, a := range st.Accs {
		fmt.Fprintf(h, "%x\n", math.Float64bits(a))
	}
	return hex.EncodeToString(h.Sum(nil))
}
