package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
)

// Dist is an extension artefact (not a paper figure): parameter-server
// traffic accounting for the deployment setting TernGrad targets, run on
// the concurrent data-parallel engine. It sweeps the uplink gradient
// codec (fp32, 8-bit affine, ternary) with fp32 weight broadcast, then
// adds APT on the server with the bitwidth-aware broadcast — the
// scenario where the downlink shrinks with the layers' precision state.
// Regenerate the PERF.md traffic table with
//
//	aptbench -exp dist -scale ci
func Dist(s Scale, log io.Writer) (*Report, error) {
	tr, te, err := s.Dataset(4, 5)
	if err != nil {
		return nil, err
	}
	build := func() (*models.Model, error) {
		return models.SmallCNN(models.Config{Classes: 4, InputSize: s.InputSize, Width: 1, Seed: s.Seed + 113})
	}
	const workers = 4

	type scenario struct {
		label      string
		codec      func() dist.GradCodec
		apt        bool
		quantBcast bool
	}
	scenarios := []scenario{
		{"fp32 up / fp32 down", func() dist.GradCodec { return dist.FP32Codec{} }, false, false},
		{"8-bit up / fp32 down", func() dist.GradCodec { return dist.KBitCodec{Bits: 8} }, false, false},
		{"ternary up / fp32 down", func() dist.GradCodec { return dist.NewTernaryCodec(s.Seed ^ 0x7E1) }, false, false},
		{"8-bit up / APT down", func() dist.GradCodec { return dist.KBitCodec{Bits: 8} }, true, true},
	}

	rep := NewReport("dist", fmt.Sprintf("Parameter-server traffic, %d concurrent workers, SmallCNN on SynthCIFAR4", workers),
		"scenario", "accuracy", "up bytes", "down bytes", "rounds", "mean bits")
	var fp32Down, aptDown int64
	for _, sc := range scenarios {
		cfg := dist.Config{
			Workers: workers, Build: build, Train: freshStream(tr), Test: te,
			BatchSize: s.Batch, Epochs: s.Epochs, LR: s.LR, Momentum: 0.9,
			Codec: sc.codec(), Seed: s.Seed,
		}
		if sc.apt {
			aptCfg := core.DefaultConfig()
			aptCfg.Interval = 1 // observe every parameter-server round
			cfg.APT = &aptCfg
			cfg.QuantBroadcast = sc.quantBcast
		}
		if log != nil {
			fmt.Fprintf(log, "-- dist: %s --\n", sc.label)
		}
		st, err := dist.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("dist %s: %w", sc.label, err)
		}
		rep.AddRow(sc.label,
			fmtPct(st.FinalAcc()),
			fmt.Sprintf("%d", st.UpBytes),
			fmt.Sprintf("%d", st.DownBytes),
			fmt.Sprintf("%d", st.Rounds),
			fmt.Sprintf("%.2f", st.MeanBits))
		rep.SetSeries(sc.label+" acc", st.Accs)
		rep.SetSeries(sc.label+" traffic", []float64{float64(st.UpBytes), float64(st.DownBytes)})
		if !sc.apt {
			if sc.label == "fp32 up / fp32 down" {
				fp32Down = st.DownBytes
			}
		} else if sc.quantBcast {
			aptDown = st.DownBytes
		}
	}
	if fp32Down > 0 && aptDown > 0 {
		rep.AddNote("bitwidth-aware broadcast spends %.2fx the fp32 downlink (%d vs %d bytes): weights ship bit-packed at each layer's current APT bitwidth.",
			float64(aptDown)/float64(fp32Down), aptDown, fp32Down)
	}
	rep.AddNote("uplink codecs run in the server ingest path; worker forward/backward passes run concurrently (one goroutine per worker).")

	if err := distFaultSweep(rep, s, build, tr, te, log); err != nil {
		return nil, err
	}
	return rep, nil
}

// distFaultSweep measures elastic-membership throughput degradation and
// notes it on rep: the same fp32 run with 0, 1 and 2 workers scripted to
// hang forever in round 1. Each straggler costs roughly one heartbeat
// timeout (detection) plus a respawn resync; rounds stay full-strength
// because the respawn budget matches the injected faults.
func distFaultSweep(rep *Report, s Scale, build func() (*models.Model, error), tr, te data.Dataset, log io.Writer) error {
	const workers = 4
	const heartbeat = 250 * time.Millisecond
	for nf := 0; nf <= 2; nf++ {
		var faults []dist.Fault
		for w := 1; w <= nf; w++ {
			faults = append(faults, dist.Fault{Worker: w, Round: 1, Kind: dist.FaultHang, Delay: time.Hour})
		}
		cfg := dist.Config{
			Workers: workers, Build: build, Train: freshStream(tr), Test: te,
			BatchSize: s.Batch, Epochs: s.Epochs, LR: s.LR, Momentum: 0.9,
			Codec: dist.FP32Codec{}, Seed: s.Seed,
			HeartbeatTimeout: heartbeat, MaxRespawns: nf,
			Fault: dist.NewFaultPlan(faults...),
		}
		if log != nil {
			fmt.Fprintf(log, "-- dist fault sweep: %d straggler(s) --\n", nf)
		}
		start := time.Now()
		st, err := dist.Run(cfg)
		if err != nil {
			return fmt.Errorf("dist fault sweep (%d stragglers): %w", nf, err)
		}
		rep.AddNote("fault sweep: %d injected straggler(s) -> %.1f steps/s (%d rounds, %d lost, %d respawned)",
			nf, float64(st.Rounds)/time.Since(start).Seconds(), st.Rounds, st.WorkersLost, st.Respawns)
	}
	return nil
}
