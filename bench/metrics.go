package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Workload names. Later issues cite them; do not rename.
const (
	wTrainSmallCNN = "train_smallcnn"
	wTrainResNet20 = "train_resnet20"
	wDistPS        = "dist_ps"
	wServeOpen     = "serve_open"
	wServeHTTP     = "serve_http"
)

var (
	onTrain  = []string{wTrainSmallCNN, wTrainResNet20}
	onDist   = []string{wDistPS}
	onServe  = []string{wServeOpen, wServeHTTP}
	onOpen   = []string{wServeOpen}
	onHTTP   = []string{wServeHTTP}
	onLearn  = []string{wTrainSmallCNN, wTrainResNet20, wDistPS}
	onModels = []string{wDistPS, wServeOpen, wServeHTTP}
	onAll    = []string{wTrainSmallCNN, wTrainResNet20, wDistPS, wServeOpen, wServeHTTP}
)

// metricDef is one row of the benchmark's metric registry — the source
// BENCHMARK.json is checked against (bench_test.go). Bound is set for
// end-to-end metrics only. For a per-layer metric, Layer is the module
// it measures, Moves the end-to-end metric it should move and On the
// workloads it is measured on; on any other workload it reads 0, which
// means "this workload does not exercise the layer", not a measurement.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	Moves  string
	On     []string
	Why    string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and defined on every workload (see README.md for the
// per-workload definition). The bounds are what the reference box's
// run-to-run spread allows; the repeat-run evidence is in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: onAll,
		Why: "median over repetitions of the set-up sequence (dataset, model, warm-up epoch; serve: train + checkpoint round trip + compile + server start)"},
	{Name: "throughput_sps", Unit: "samples/s", Better: "higher", Bound: 0.25, On: onAll,
		Why: "samples completed correctly per second: upper quartile over the slices of the timed window"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onAll,
		Why: "step (train), round (dist) or request (serve) latency: lower quartile over slices of the slice's p50"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onAll,
		Why: "the same latency's p90 per slice, lower quartile over slices; p99 is too noisy on a shared box to gate on"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, On: onAll,
		Why: "VmHWM of the workload's child process"},
	{Name: "final_acc", Unit: "ratio", Better: "higher", Bound: 0.25, On: onAll,
		Why: "last-epoch test accuracy (train, dist); share of served classes equal to the float model's argmax (serve)"},
	{Name: "norm_size", Unit: "ratio", Better: "lower", Bound: 0.20, On: onAll,
		Why: "the paper's memory axis: peak training model size over fp32 (train, dist); deployed engine size over fp32 (serve)"},
}

// perLayer are the traced-pass metrics, grouped by module.
var perLayer = []metricDef{
	// data
	{Name: "data.next_ms_per_step", Unit: "ms", Better: "lower", Layer: "data", Moves: "throughput_sps", On: onTrain, Why: "Loader.Next (sample, augment, pack) per step"},
	{Name: "data.synth_build_ms", Unit: "ms", Better: "lower", Layer: "data", Moves: "setup_s", On: onAll, Why: "NewSynth: render the train and test splits"},
	{Name: "data.samples", Unit: "count", Better: "higher", Layer: "data", Moves: "throughput_sps", On: onLearn, Why: "training samples loaded in the timed window"},

	// nn
	{Name: "nn.conv_fwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "top-level Conv2D.Forward per step"},
	{Name: "nn.conv_bwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "top-level Conv2D.Backward per step"},
	{Name: "nn.bn_fwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "top-level BatchNorm2D.Forward per step"},
	{Name: "nn.bn_bwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "top-level BatchNorm2D.Backward per step"},
	{Name: "nn.linear_fwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "Linear.Forward per step"},
	{Name: "nn.linear_bwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "Linear.Backward per step"},
	{Name: "nn.residual_fwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "Residual.Forward per step (its inner convs and batch-norms included)"},
	{Name: "nn.residual_bwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "Residual.Backward per step"},
	{Name: "nn.other_fwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "ReLU, pooling and the rest, forward per step"},
	{Name: "nn.other_bwd_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "ReLU, pooling and the rest, backward per step"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "SoftmaxCrossEntropy.Forward per step"},
	{Name: "nn.layers", Unit: "count", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "layers in the tree (WalkLayers)"},
	{Name: "nn.macs_per_sample", Unit: "count", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "forward multiply-accumulates per sample"},
	{Name: "nn.allocs_per_step", Unit: "count", Better: "lower", Layer: "nn", Moves: "throughput_sps", On: onTrain, Why: "heap allocations per traced step (arena contract: near zero)"},
	{Name: "nn.alloc_bytes_per_step", Unit: "bytes", Better: "lower", Layer: "nn", Moves: "peak_rss_mb", On: onTrain, Why: "heap bytes allocated per traced step"},

	// tensor: kernels timed standalone at shapes lifted from the workloads
	{Name: "tensor.gemm_f32_wide_gflops", Unit: "Gflop/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "MatMulInto (32,144)x(144,4096): SmallCNN conv3 forward, packed route"},
	{Name: "tensor.gemm_f32_narrow_gflops", Unit: "Gflop/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "MatMulInto (4,36)x(36,16384): ResNet-20 w0.25 stage-1 conv, AXPY route"},
	{Name: "tensor.gemm_f32_transa_gflops", Unit: "Gflop/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "MatMulTransAInto: conv3 input gradient"},
	{Name: "tensor.gemm_f32_transb_gflops", Unit: "Gflop/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "MatMulTransBInto: conv3 weight gradient"},
	{Name: "tensor.im2col_f32_gbps", Unit: "GB/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "Im2ColBatchInto at conv3 geometry, computed bytes moved"},
	{Name: "tensor.col2im_f32_gbps", Unit: "GB/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "Col2ImBatchInto at conv3 geometry, computed bytes moved"},
	{Name: "tensor.gemm_u8i8_gops", Unit: "Gop/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "MatMulU8I8PackedInto (4096,144)x(144,32): int8 conv3 GEMM at batch 64"},
	{Name: "tensor.conv_implicit_gops", Unit: "Gop/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "ConvU8I8ImplicitInto at conv3 geometry, batch 64"},
	{Name: "tensor.requant_gelems", Unit: "Gelem/s", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "RequantQ31Transpose over (4096,32) accumulators"},
	{Name: "tensor.parallel_for_us", Unit: "us", Better: "lower", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "ParallelFor fork/join latency with an empty body"},
	{Name: "tensor.simd", Unit: "flag", Better: "higher", Layer: "tensor", Moves: "throughput_sps", On: onAll, Why: "1 when the assembly kernels are dispatched"},

	// quant
	{Name: "quant.snap_ns_per_elem", Unit: "ns", Better: "lower", Layer: "quant", Moves: "throughput_sps", On: onAll, Why: "State.Refresh + SnapInPlace (optimizer step, k-bit codec)"},
	{Name: "quant.pack_ns_per_elem", Unit: "ns", Better: "lower", Layer: "quant", Moves: "throughput_sps", On: onAll, Why: "quant.Pack at 8 bits (broadcast, checkpoint save)"},
	{Name: "quant.unpack_ns_per_elem", Unit: "ns", Better: "lower", Layer: "quant", Moves: "setup_s", On: onAll, Why: "Packed.Unpack at 8 bits (broadcast, checkpoint load)"},

	// optim, core, energy
	{Name: "optim.step_ms_per_step", Unit: "ms", Better: "lower", Layer: "optim", Moves: "throughput_sps", On: onTrain, Why: "SGD.Step (truncated update + snap) per step"},
	{Name: "core.observe_us_per_step", Unit: "us", Better: "lower", Layer: "core", Moves: "throughput_sps", On: onTrain, Why: "Controller.ObserveBatch per step"},
	{Name: "core.adjust_us_per_epoch", Unit: "us", Better: "lower", Layer: "core", Moves: "throughput_sps", On: onTrain, Why: "Controller.AdjustEpoch per epoch"},
	{Name: "core.bit_changes", Unit: "count", Better: "lower", Layer: "core", Moves: "norm_size", On: onTrain, Why: "per-layer bitwidth changes over the run"},
	{Name: "core.mean_bits_final", Unit: "bits", Better: "lower", Layer: "core", Moves: "norm_size", On: onTrain, Why: "parameter-weighted mean bitwidth at the end"},
	{Name: "energy.snapshot_us_per_step", Unit: "us", Better: "lower", Layer: "energy", Moves: "throughput_sps", On: onTrain, Why: "energy.Snapshot + Meter.Charge per step"},
	{Name: "energy.norm_energy", Unit: "ratio", Better: "lower", Layer: "energy", Moves: "norm_size", On: onTrain, Why: "History.NormalizedEnergy — the paper's training-energy axis (seed-exact)"},

	// train
	{Name: "train.eval_ms_per_epoch", Unit: "ms", Better: "lower", Layer: "train", Moves: "throughput_sps", On: onTrain, Why: "train.Evaluate per epoch"},
	{Name: "train.step_self_ms", Unit: "ms", Better: "lower", Layer: "train", Moves: "throughput_sps", On: onTrain, Why: "step span minus its children"},
	{Name: "train.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "train", Moves: "throughput_sps", On: onTrain, Why: "untraced vs traced throughput in the same process"},
	{Name: "train.trace_faithful", Unit: "flag", Better: "higher", Layer: "train", Moves: "final_acc", On: onTrain, Why: "1 when the hand-assembled traced loop reproduces train.Run's History"},

	// models
	{Name: "models.build_ms", Unit: "ms", Better: "lower", Layer: "models", Moves: "setup_s", On: onAll, Why: "models.Build of the workload's backbone"},
	{Name: "models.save_ms", Unit: "ms", Better: "lower", Layer: "models", Moves: "setup_s", On: onServe, Why: "SaveFileAtomic of the bit-packed serving checkpoint"},
	{Name: "models.load_ms", Unit: "ms", Better: "lower", Layer: "models", Moves: "setup_s", On: onModels, Why: "LoadAutoFile of the serving checkpoint"},
	{Name: "models.ckpt_bytes", Unit: "bytes", Better: "lower", Layer: "models", Moves: "setup_s", On: onModels, Why: "size of the serving checkpoint"},
	{Name: "models.trainstate_save_ms", Unit: "ms", Better: "lower", Layer: "models", Moves: "throughput_sps", On: onDist, Why: "SaveTrainState of the run's own snapshot"},
	{Name: "models.trainstate_load_ms", Unit: "ms", Better: "lower", Layer: "models", Moves: "setup_s", On: onDist, Why: "LoadTrainState of the run's last snapshot"},
	{Name: "models.trainstate_bytes", Unit: "bytes", Better: "lower", Layer: "models", Moves: "throughput_sps", On: onDist, Why: "size of the TrainState file"},

	// dist
	{Name: "dist.rounds", Unit: "count", Better: "higher", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "Stats.Rounds"},
	{Name: "dist.round_ms_mean", Unit: "ms", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "wall time per round (evaluation and checkpoints included)"},
	{Name: "dist.codec_ms_per_round", Unit: "ms", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "time inside GradCodec.Encode per round"},
	{Name: "dist.codec_calls_per_round", Unit: "count", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "Encode calls per round (workers x parameters)"},
	{Name: "dist.up_bytes_per_round", Unit: "bytes", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "UpBytes / Rounds"},
	{Name: "dist.down_bytes_per_round", Unit: "bytes", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "DownBytes / Rounds"},
	{Name: "dist.wire_bytes_per_round", Unit: "bytes", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "(UpBytes + DownBytes) / Rounds (seed-exact)"},
	{Name: "dist.worker_compute_ms_per_round", Unit: "ms", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "standalone shard step, one replica per worker stepping concurrently"},
	{Name: "dist.sync_ms_per_round", Unit: "ms", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "quiet-slice round p50 minus worker compute: ingest, server step, broadcast, barrier wait"},
	{Name: "dist.ckpt_stall_ms_per_round", Unit: "ms", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "trainstate_save_ms x checkpoints / rounds"},
	{Name: "dist.checkpoints", Unit: "count", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "Stats.Checkpoints"},
	{Name: "dist.publishes", Unit: "count", Better: "lower", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "Stats.Publishes"},
	{Name: "dist.w1_throughput_sps", Unit: "samples/s", Better: "higher", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "plain single-worker run of the same task"},
	{Name: "dist.scaling_eff", Unit: "ratio", Better: "higher", Layer: "dist", Moves: "throughput_sps", On: onDist, Why: "2-worker throughput / (2 x single-worker throughput)"},
	{Name: "dist.workers_lost", Unit: "count", Better: "lower", Layer: "dist", Moves: "final_acc", On: onDist, Why: "Stats.WorkersLost (0 expected)"},
	{Name: "dist.partial_rounds", Unit: "count", Better: "lower", Layer: "dist", Moves: "final_acc", On: onDist, Why: "Stats.PartialRounds (0 expected)"},
	{Name: "dist.stale_dropped", Unit: "count", Better: "lower", Layer: "dist", Moves: "final_acc", On: onDist, Why: "Stats.StaleDropped (0 expected)"},
	{Name: "dist.mean_bits_final", Unit: "bits", Better: "lower", Layer: "dist", Moves: "norm_size", On: onDist, Why: "Stats.MeanBits"},

	// infer
	{Name: "infer.compile_ms", Unit: "ms", Better: "lower", Layer: "infer", Moves: "setup_s", On: onServe, Why: "infer.Compile (fold, calibrate, lower, pack)"},
	{Name: "infer.forward_b1_us", Unit: "us", Better: "lower", Layer: "infer", Moves: "latency_p50_ms", On: onServe, Why: "Engine.Forward at batch 1"},
	{Name: "infer.forward_b16_us", Unit: "us", Better: "lower", Layer: "infer", Moves: "latency_p50_ms", On: onServe, Why: "Engine.Forward at batch 16"},
	{Name: "infer.forward_b64_us", Unit: "us", Better: "lower", Layer: "infer", Moves: "throughput_sps", On: onServe, Why: "Engine.Forward at batch 64"},
	{Name: "infer.float_forward_b64_us", Unit: "us", Better: "lower", Layer: "infer", Moves: "throughput_sps", On: onServe, Why: "the float model's forward at batch 64, for the int8:float ratio"},
	{Name: "infer.im2col_share", Unit: "ratio", Better: "lower", Layer: "infer", Moves: "throughput_sps", On: onServe, Why: "ForwardProfile gather/pack share at batch 64, best of 12"},
	{Name: "infer.gemm_share", Unit: "ratio", Better: "higher", Layer: "infer", Moves: "throughput_sps", On: onServe, Why: "ForwardProfile GEMM share"},
	{Name: "infer.requant_share", Unit: "ratio", Better: "lower", Layer: "infer", Moves: "throughput_sps", On: onServe, Why: "ForwardProfile requantization share"},
	{Name: "infer.other_share", Unit: "ratio", Better: "lower", Layer: "infer", Moves: "throughput_sps", On: onServe, Why: "ForwardProfile remainder"},
	{Name: "infer.allocs_per_forward", Unit: "count", Better: "lower", Layer: "infer", Moves: "throughput_sps", On: onServe, Why: "heap allocations per batch-64 forward"},
	{Name: "infer.size_bytes", Unit: "bytes", Better: "lower", Layer: "infer", Moves: "norm_size", On: onServe, Why: "Engine.SizeBytes"},
	{Name: "infer.implicit_layers", Unit: "count", Better: "higher", Layer: "infer", Moves: "throughput_sps", On: onServe, Why: "conv layers compiled onto the implicit lowering"},
	{Name: "infer.agree_ratio", Unit: "ratio", Better: "higher", Layer: "infer", Moves: "final_acc", On: onServe, Why: "int8 vs float argmax agreement on the test split"},

	// serve
	{Name: "serve.mean_batch_a", Unit: "samples", Better: "higher", Layer: "serve", Moves: "latency_p50_ms", On: onOpen, Why: "samples per engine call in phase A (open, 2000 rps)"},
	{Name: "serve.mean_batch_c", Unit: "samples", Better: "higher", Layer: "serve", Moves: "throughput_sps", On: onServe, Why: "samples per engine call in the closed-loop phase"},
	{Name: "serve.batches", Unit: "count", Better: "lower", Layer: "serve", Moves: "throughput_sps", On: onServe, Why: "engine calls over the whole run"},
	{Name: "serve.engine_ms_per_batch", Unit: "ms", Better: "lower", Layer: "serve", Moves: "throughput_sps", On: onServe, Why: "mean Classify time per batch in the closed-loop phase"},
	{Name: "serve.engine_busy_share", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "throughput_sps", On: onServe, Why: "engine time / (window x workers) in the closed-loop phase"},
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms", On: onOpen, Why: "phase A request latency minus its batch's engine time: queue + gather + reply"},
	{Name: "serve.latency_p99_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p90_ms", On: onServe, Why: "p99 request latency (phase A; serve_http: whole window)"},
	{Name: "serve.max_ok_rps", Unit: "1/s", Better: "higher", Layer: "serve", Moves: "throughput_sps", On: onOpen, Why: "highest ladder rung with p90 <= 10 ms, no failure, no growing backlog"},
	{Name: "serve.ladder_p90_ms_8k", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p90_ms", On: onOpen, Why: "p90 at 8000 rps"},
	{Name: "serve.ladder_p90_ms_16k", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p90_ms", On: onOpen, Why: "p90 at 16000 rps"},
	{Name: "serve.ladder_p90_ms_24k", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p90_ms", On: onOpen, Why: "p90 at 24000 rps"},
	{Name: "serve.ladder_p90_ms_32k", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p90_ms", On: onOpen, Why: "p90 at 32000 rps"},
	{Name: "serve.gen_late_ms_mean", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms", On: onOpen, Why: "how late the open-loop generator ran in phase A, mean (the run is invalid when the median exceeds 1 ms)"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Layer: "serve", Moves: "throughput_sps", On: onServe, Why: "Stats.Rejected (ladder rungs past the knee refuse by design)"},
	{Name: "serve.dropped", Unit: "count", Better: "lower", Layer: "serve", Moves: "throughput_sps", On: onServe, Why: "Stats.Dropped (0 expected)"},
	{Name: "serve.errored", Unit: "count", Better: "lower", Layer: "serve", Moves: "throughput_sps", On: onServe, Why: "Stats.Errored (0 expected)"},
	{Name: "serve.handler_ms_per_req", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms", On: onHTTP, Why: "median Handler().ServeHTTP driven in-process with a recorder"},
	{Name: "serve.http_overhead_ms_per_req", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms", On: onHTTP, Why: "handler minus engine time per request: decode, validate, fan-out, queue, encode"},
	{Name: "serve.socket_ms_per_req", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms", On: onHTTP, Why: "loopback p50 minus in-process handler p50"},
	{Name: "serve.bytes_in_per_req", Unit: "bytes", Better: "lower", Layer: "serve", Moves: "latency_p50_ms", On: onHTTP, Why: "request body size"},
	{Name: "serve.bytes_out_per_req", Unit: "bytes", Better: "lower", Layer: "serve", Moves: "latency_p50_ms", On: onHTTP, Why: "reply body size"},
	{Name: "serve.status_non200", Unit: "count", Better: "lower", Layer: "serve", Moves: "throughput_sps", On: onHTTP, Why: "replies with a status other than 200 (0 expected)"},
}

// manifest is BENCHMARK.json: exactly these keys, as the driver reads them.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the --seconds the driver passes: the length the epoch
// budgets and phase splits were calibrated for.
const runSeconds = 15

// registryManifest renders the registry as BENCHMARK.json.
func registryManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func printManifest(stdout, stderr io.Writer) int {
	data, err := json.MarshalIndent(registryManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a workload prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func printResult(w io.Writer, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run collects what one workload measures. Workloads set any metric they
// know by name; finish keeps the set the pass must report.
type run struct {
	workload  string
	opts      options
	tr        *tracer // nil when tracing is off
	log       io.Writer
	vals      map[string]float64
	attempted int64
	failed    int64
	invalid   []string // reasons the run's numbers cannot be trusted
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

// ops counts attempted operations and how many of them failed.
func (r *run) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check counts one correctness check as an operation; a miss is a failed
// operation and is logged by name.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "FAILED %s\n", fmt.Sprintf(format, args...))
	}
}

func (r *run) invalidate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.invalid = append(r.invalid, msg)
	fmt.Fprintf(r.log, "INVALID %s\n", msg)
}

// finish prints every measured metric by name and unit and assembles the
// result: the end-to-end set for an untraced pass, the per-layer set for
// a traced one. A per-layer metric the workload does not exercise reads
// 0; a metric the pass owes but did not measure invalidates the run.
func (r *run) finish() *result {
	defs, other := endToEnd, perLayer
	if r.opts.traced {
		defs, other = perLayer, endToEnd
	}
	res := &result{Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		switch {
		case ok && (math.IsNaN(v) || math.IsInf(v, 0)):
			r.invalidate("%s is %v", d.Name, v)
			v = 0
		case !ok && contains(d.On, r.workload):
			r.invalidate("%s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		if ok {
			fmt.Fprintf(r.log, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	// Metrics of the other pass that this pass happens to know (counts are
	// exact in both) are printed for the reader but not reported.
	for _, d := range other {
		if v, ok := r.vals[d.Name]; ok {
			fmt.Fprintf(r.log, "%-34s %14.6g %s (not reported by this pass)\n", d.Name, v, d.Unit)
		}
	}
	if r.attempted < 1 {
		r.attempted = 1
		r.failed = 1
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && len(r.invalid) == 0
	return res
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// window is one slice of a timed window: an epoch of a training run, or
// half a second of a load phase. Throughput and latency are computed per
// slice and the good-side quartile over slices is reported (Q3 of the
// throughputs, Q1 of the latencies). Interference on a shared box only
// ever slows a slice down, in bursts of a second or two and in stretches
// of minutes; a mean over the window inherits all of it, a median over
// slices the stretches, and the quiet quarter of the slices is the closest
// a 15 s run gets to the system's own speed.
type window struct {
	dur     time.Duration
	samples int     // samples completed correctly in the slice
	latNs   []int64 // latencies of the operations that completed in it
}

// sliceThroughput is the upper quartile over slices of samples per second.
func sliceThroughput(ws []window) float64 {
	var sps []float64
	for _, w := range ws {
		if w.dur > 0 {
			sps = append(sps, float64(w.samples)/w.dur.Seconds())
		}
	}
	return quartile(sps, 0.75)
}

// sliceQuantileMs is the lower quartile over slices of each slice's
// q-quantile latency, in milliseconds.
func sliceQuantileMs(ws []window, q float64) float64 {
	var qs []float64
	for _, w := range ws {
		if len(w.latNs) > 0 {
			qs = append(qs, quantileMs(sortedCopy(w.latNs), q))
		}
	}
	return quartile(qs, 0.25)
}

// quartile returns the q-quantile (nearest rank) of xs; 0 when empty.
func quartile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// quantile returns the q-quantile (nearest rank) of sorted nanosecond
// samples, in milliseconds; 0 for an empty sample.
func quantileMs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e6
}

func sortedCopy(ns []int64) []int64 {
	out := append([]int64(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }
