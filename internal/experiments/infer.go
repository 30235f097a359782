package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// InferBenchPath is where the Infer experiment writes its JSON report.
var InferBenchPath = "BENCH_infer.json"

// inferBenchRow is one measured configuration of the serving report.
type inferBenchRow struct {
	Name string `json:"name"`
	// NsPerOp is the wall time of one Forward call at this batch size.
	NsPerOp float64 `json:"ns_per_op"`
	Batch   int     `json:"batch"`
	// SamplesPerSec is the resulting single-engine throughput.
	SamplesPerSec float64 `json:"samples_per_sec"`
}

// inferLoopShare is the per-stage decomposition of one batch-64 int8
// forward (infer.Engine.ForwardProfile): wall time split into the
// im2col gather/pack, the packed GEMM, the requant epilogue and
// everything else. Best-of-N profiled forwards, since the shared
// reference machine is noisy and the floor is the honest kernel cost.
type inferLoopShare struct {
	Batch     int     `json:"batch"`
	Runs      int     `json:"runs"`
	TotalNs   float64 `json:"total_ns"`
	Im2colNs  float64 `json:"im2col_ns"`
	GEMMNs    float64 `json:"gemm_ns"`
	RequantNs float64 `json:"requant_ns"`
	OtherNs   float64 `json:"other_ns"`
}

// inferConvLowering records one conv layer's lowering (always the
// implicit band gather) and the gather route its kernel shape selects.
type inferConvLowering struct {
	Layer string `json:"layer"`
	Mode  string `json:"mode"`
	Why   string `json:"why"`
}

// inferServingStats is the micro-batching server section.
type inferServingStats struct {
	Workers       int     `json:"workers"`
	Clients       int     `json:"clients"`
	Requests      uint64  `json:"requests"`
	Batches       uint64  `json:"batches"`
	MeanBatch     float64 `json:"mean_batch"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// inferSIMDInfo records the kernel dispatch the numbers were measured
// under; without it a portable-fallback run is indistinguishable from an
// assembly-path regression when comparing reports across machines.
type inferSIMDInfo struct {
	Active   bool   `json:"active"`
	Features string `json:"features"`
}

// inferBenchReport is the BENCH_infer.json document.
type inferBenchReport struct {
	Generated  string          `json:"generated"`
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	SIMD       inferSIMDInfo   `json:"simd"`
	Scale      string          `json:"scale"`
	Rows       []inferBenchRow `json:"rows"`
	// LoopShare and ConvLowerings track where the batch-64 forward
	// spends its time and which gather route each conv layer compiled
	// onto — the machine-readable form of the "kernel-bound, not
	// packer-bound" claim.
	LoopShare     inferLoopShare      `json:"loop_share"`
	ConvLowerings []inferConvLowering `json:"conv_lowerings"`
	Serving       inferServingStats   `json:"serving"`
	// SeedBaseline freezes the seed commit's per-sample interpreter on
	// the same workload (dc0a200, 1-core reference machine), so the
	// speedup trajectory stays machine-readable.
	SeedBaseline []inferBenchRow `json:"seed_baseline"`
}

// seedInferBaseline: seed per-sample interpreter, SmallCNN @16×16,
// batch 64, measured on the 1-core reference Xeon @ 2.10GHz.
var seedInferBaseline = []inferBenchRow{
	{Name: "seed_interpreter_forward", NsPerOp: 161930599, Batch: 64, SamplesPerSec: 64 / 0.161930599},
}

// Infer is an extension artefact (not a paper figure): inference and
// serving benchmarks for the int8 engine — single-sample latency, batched
// throughput, int8-vs-float comparison, and the micro-batching server
// under concurrent clients. Writes BENCH_infer.json next to the text
// table. Regenerate the PERF.md serving section with
//
//	aptbench -exp infer -scale ci
func Infer(s Scale, log io.Writer) (*Report, error) {
	tr, te, err := s.Dataset(4, 9)
	if err != nil {
		return nil, err
	}
	m, err := s.SmallCNN(4)
	if err != nil {
		return nil, err
	}
	if log != nil {
		fmt.Fprintf(log, "-- infer: training smallcnn at %s scale --\n", s.Name)
	}
	if _, err := s.execute(runSpec{model: m, train: tr, test: te, seed: 977}, log); err != nil {
		return nil, err
	}
	calibN := 64
	if calibN > tr.Len() {
		calibN = tr.Len()
	}
	calib, _, err := data.PackBatch(tr, calibN)
	if err != nil {
		return nil, err
	}
	eng, err := infer.Compile(m, infer.Config{Calibration: calib})
	if err != nil {
		return nil, err
	}

	const batch = 64
	x, _, err := data.PackBatch(te, batch)
	if err != nil {
		return nil, err
	}
	one, err := tensor.FromSlice(x.Data()[:3*s.InputSize*s.InputSize], 1, 3, s.InputSize, s.InputSize)
	if err != nil {
		return nil, err
	}

	rep := NewReport("infer", fmt.Sprintf("int8 serving engine, SmallCNN on SynthCIFAR4 (%d×%d)", s.InputSize, s.InputSize),
		"path", "batch", "latency", "samples/s")
	jrep := inferBenchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SIMD:       inferSIMDInfo{Active: tensor.SIMDActive(), Features: tensor.SIMDFeatures()},
		Scale:      s.Name,
	}
	measure := func(name string, n int, f func() error) (float64, error) {
		ns, err := benchNs(f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		sps := float64(n) / (ns / 1e9)
		jrep.Rows = append(jrep.Rows, inferBenchRow{Name: name, NsPerOp: ns, Batch: n, SamplesPerSec: sps})
		rep.AddRow(name, fmt.Sprintf("%d", n), time.Duration(ns).Round(time.Microsecond).String(), fmt.Sprintf("%.0f", sps))
		rep.SetSeries(fmt.Sprintf("%s_b%d", name, n), []float64{ns, sps})
		return ns, nil
	}

	// Batch-size latency sweep: the serving latency curve (how micro-batch
	// coalescing amortizes the per-call cost) as machine-readable rows,
	// not just the two endpoints.
	var int1, int64ns float64
	for _, bs := range []int{1, 4, 16, 64} {
		xb := one
		if bs > 1 {
			xb, err = tensor.FromSlice(x.Data()[:bs*3*s.InputSize*s.InputSize], bs, 3, s.InputSize, s.InputSize)
			if err != nil {
				return nil, err
			}
		}
		ns, err := measure("int8_engine_forward", bs, func() error { _, err := eng.Forward(xb); return err })
		if err != nil {
			return nil, err
		}
		switch bs {
		case 1:
			int1 = ns
		case batch:
			int64ns = ns
		}
	}
	// Float baseline over the same batch grid, so every int8 row has a
	// like-for-like float partner in the report.
	var f64 float64
	for _, bs := range []int{1, 4, 16, 64} {
		xb := one
		if bs > 1 {
			xb, err = tensor.FromSlice(x.Data()[:bs*3*s.InputSize*s.InputSize], bs, 3, s.InputSize, s.InputSize)
			if err != nil {
				return nil, err
			}
		}
		ns, err := measure("float_model_forward", bs, func() error { _, err := m.Net.Forward(xb, false); return err })
		if err != nil {
			return nil, err
		}
		if bs == batch {
			f64 = ns
		}
	}

	// Per-stage loop share of the batch-64 int8 forward, plus each conv
	// layer's gather route.
	x64, err := tensor.FromSlice(x.Data()[:batch*3*s.InputSize*s.InputSize], batch, 3, s.InputSize, s.InputSize)
	if err != nil {
		return nil, err
	}
	const profRuns = 12
	var prof *infer.ForwardProfile
	for r := 0; r < profRuns; r++ {
		_, p, err := eng.ForwardProfile(x64)
		if err != nil {
			return nil, fmt.Errorf("profile forward: %w", err)
		}
		if prof == nil || p.Total < prof.Total {
			prof = p
		}
	}
	jrep.LoopShare = inferLoopShare{
		Batch: batch, Runs: profRuns,
		TotalNs:   float64(prof.Total.Nanoseconds()),
		Im2colNs:  float64(prof.Im2col.Nanoseconds()),
		GEMMNs:    float64(prof.GEMM.Nanoseconds()),
		RequantNs: float64(prof.Requant.Nanoseconds()),
		OtherNs:   float64(prof.Other.Nanoseconds()),
	}
	lows := eng.ConvLowerings()
	lowParts := make([]string, 0, len(lows))
	for _, l := range lows {
		jrep.ConvLowerings = append(jrep.ConvLowerings, inferConvLowering{Layer: l.Layer, Mode: l.Mode, Why: l.Why})
		lowParts = append(lowParts, fmt.Sprintf("%s=%s", l.Layer, l.Why))
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(prof.Total) }
	rep.AddNote("loop share at batch %d (best of %d profiled forwards): im2col %.0f%%, GEMM %.0f%%, requant %.0f%%, other %.0f%% of %.2fms.",
		batch, profRuns, pct(prof.Im2col), pct(prof.GEMM), pct(prof.Requant), pct(prof.Other),
		float64(prof.Total.Nanoseconds())/1e6)
	rep.AddNote("conv lowerings, all implicit band gather: %s.", strings.Join(lowParts, ", "))
	rep.SetSeries("loop_share_b64", []float64{
		jrep.LoopShare.TotalNs, jrep.LoopShare.Im2colNs, jrep.LoopShare.GEMMNs,
		jrep.LoopShare.RequantNs, jrep.LoopShare.OtherNs,
	})

	// Micro-batching server under concurrent clients.
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	srv, err := serve.New(serve.Config{
		Engine:  eng, // sample geometry defaults from eng.InputShape
		Workers: workers, MaxBatch: batch, MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	const clients, perClient = 16, 24
	var wg sync.WaitGroup
	wg.Add(clients)
	serveErrs := make(chan error, clients)
	sampleLen := 3 * s.InputSize * s.InputSize
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				img := x.Data()[((c*perClient+r)%batch)*sampleLen:][:sampleLen]
				if _, err := srv.Classify(img); err != nil {
					serveErrs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(serveErrs)
	for err := range serveErrs {
		srv.Close()
		return nil, fmt.Errorf("serving clients: %w", err)
	}
	st := srv.Stats()
	srv.Close()
	jrep.Serving = inferServingStats{
		Workers: workers, Clients: clients,
		Requests: st.Requests, Batches: st.Batches, MeanBatch: st.MeanBatch,
		P50Ms: st.P50Ms, P99Ms: st.P99Ms, ThroughputRPS: st.Throughput,
	}
	rep.AddRow("serve (16 clients)", fmt.Sprintf("%.1f", st.MeanBatch),
		fmt.Sprintf("p50 %.1fms p99 %.1fms", st.P50Ms, st.P99Ms),
		fmt.Sprintf("%.0f", st.Throughput))
	rep.SetSeries("serving", []float64{st.P50Ms, st.P99Ms, st.Throughput, st.MeanBatch})

	jrep.SeedBaseline = seedInferBaseline
	if s.InputSize == 16 {
		rep.AddNote("vs seed per-sample interpreter (batch %d): %.1fx faster (%.1fms -> %.1fms).",
			batch, seedInferBaseline[0].NsPerOp/int64ns, seedInferBaseline[0].NsPerOp/1e6, int64ns/1e6)
	}
	dispatch := "portable Go kernels (no SIMD dispatch)"
	if tensor.SIMDActive() {
		dispatch = fmt.Sprintf("both paths on %s assembly kernels", tensor.SIMDFeatures())
	}
	rep.AddNote("int8 vs float forward at batch %d: %.2fx (%s).", batch, f64/int64ns, dispatch)
	rep.AddNote("single-sample int8 latency %.2fms; micro-batching amortizes it to %.0f samples/s at mean batch %.1f.",
		int1/1e6, st.Throughput, st.MeanBatch)

	data, err := json.MarshalIndent(jrep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(InferBenchPath, data, 0o644); err != nil {
		return nil, fmt.Errorf("write %s: %w", InferBenchPath, err)
	}
	rep.AddNote("wrote %s.", InferBenchPath)
	return rep, nil
}

// benchNs times f, warming up once and then averaging over enough
// iterations to cover ~300ms of wall time.
func benchNs(f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	per := time.Since(start)
	iters := int(300 * time.Millisecond / (per + 1))
	if iters < 3 {
		iters = 3
	}
	if iters > 10000 {
		iters = 10000
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}
