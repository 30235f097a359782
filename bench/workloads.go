package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(r *run) error
}

var workloads = []workloadDef{
	{wTrainSmallCNN, "closed loop, four wide convs: conv forward+backward on the packed float GEMM is most of a step; the float-kernel workload",
		func(r *run) error { return trainWorkload(r, "smallcnn", 2.0, 0.60) }},
	{wTrainResNet20, "closed loop, the paper's backbone: ~20 narrow convs on the AXPY route, batch-norm and residual adds; a change tuned to wide GEMMs that costs narrow ones shows here",
		func(r *run) error { return trainWorkload(r, "resnet20", 1.2, 0.20) }},
	{wDistPS, "closed loop of strict barrier rounds: train_smallcnn's compute at half batch plus codec, averaging, bit-packed broadcast, barrier wait and checkpoint stall",
		distWorkload},
	{wServeOpen, "open loop at 2000 rps (MaxDelay-bound: batch-fill policy shows, kernels do not) then closed loop with 64 in flight (engine-bound: kernels show); no HTTP, no JSON",
		serveOpenWorkload},
	{wServeHTTP, "closed loop, 2 keep-alive connections posting 16 samples as JSON: ingress, decode, fan-out and reply do most of the work and the engine little",
		serveHTTPWorkload},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// smokeSeconds: a run shorter than this is a smoke run (bench_test.go); it
// sets up once and owes no accuracy floor.
const smokeSeconds = 5

// How often an untraced run repeats its set-up sequence; setup_s is the
// median, so one slow repetition does not move it. The serving sequence
// takes seconds (training plus a 2 s engine compile), so it runs twice.
const (
	setupReps      = 3
	serveSetupReps = 2
)

// runWorkload runs one workload in this process and assembles its result.
func runWorkload(w *workloadDef, o options, out io.Writer) (*result, error) {
	r := &run{workload: w.Name, opts: o, log: out, vals: map[string]float64{}}
	if o.traced {
		r.tr = newTracer()
	}
	fmt.Fprintf(out, "== %s  seed=%d seconds=%d traced=%v GOMAXPROCS=%s simd=%s\n",
		w.Name, o.seed, o.seconds, o.traced, os.Getenv("GOMAXPROCS"), simdFeatures())
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if o.traced {
		if err := kernelRows(r); err != nil {
			return nil, fmt.Errorf("%s: kernel rows: %w", w.Name, err)
		}
		path, err := r.tr.write(w.Name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace: %d spans -> %s\n", len(r.tr.spans), path)
	}
	r.set("peak_rss_mb", peakRSSMB())
	return r.finish(), nil
}

// setups repeats a set-up sequence and records the median as setup_s. The
// sequence's product from the last repetition is returned for the timed
// window. A traced run sets up once (it reports no setup_s), and so does
// a smoke run.
func setups[T any](r *run, reps int, discard func(T), seq func() (T, error)) (T, error) {
	if r.opts.traced || r.opts.seconds < smokeSeconds {
		reps = 1
	}
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := seq()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	r.set("setup_s", median(times))
	return last, nil
}

// scaledEpochs sizes a training budget from --seconds: the workloads are
// fixed work (an APT run is judged on its whole trajectory, not on a
// step), calibrated so the timed window is about --seconds at the commit
// that defined the benchmark.
func scaledEpochs(seconds int, perSecond float64) int {
	return max(2, int(float64(seconds)*perSecond+0.5))
}

// accuracyFloorEpochs is the shortest run the accuracy floors apply to; a
// smoke run trains too briefly to owe one.
const accuracyFloorEpochs = 10

// setLatency reports the quiet quartile over the slices of each slice's p50
// and p90.
func setLatency(r *run, ws []window) {
	r.set("latency_p50_ms", sliceQuantileMs(ws, 0.50))
	r.set("latency_p90_ms", sliceQuantileMs(ws, 0.90))
	n := 0
	for _, w := range ws {
		n += len(w.latNs)
	}
	fmt.Fprintf(r.log, "latency: %d samples in %d slices\n", n, len(ws))
}

// epochWindows slices a run by epoch: opNs holds the latencies of its
// steps or rounds in order, a whole number of them per epoch.
func epochWindows(epochNs, opNs []int64, samplesPerEpoch int) []window {
	per := len(opNs) / max(1, len(epochNs))
	ws := make([]window, len(epochNs))
	for k, ns := range epochNs {
		ws[k] = window{dur: time.Duration(ns), samples: samplesPerEpoch, latNs: opNs[k*per : (k+1)*per]}
	}
	return ws
}

// loadSlice is the slice width of a load phase.
const loadSlice = 500 * time.Millisecond

// ---------------------------------------------------------------------
// train_smallcnn, train_resnet20

func trainWorkload(r *run, arch string, epochsPerSecond, accFloor float64) error {
	epochs := scaledEpochs(r.opts.seconds, epochsPerSecond)
	warm, err := setups(r, setupReps, nil, func() (*task, error) {
		t, err := newTask(arch, r.opts.seed)
		if err != nil {
			return nil, err
		}
		_, err = t.runTrain(1) // warm-up epoch: worker pool, arenas, page faults
		return t, err
	})
	if err != nil {
		return err
	}
	r.set("data.synth_build_ms", warm.synthBuildMs)
	// The warm-up consumed augmentation draws; the timed run gets a fresh
	// copy of the dataset so its inputs depend on the seed alone.
	fresh := func() (*task, error) { return newTask(arch, r.opts.seed) }
	t, err := fresh()
	if err != nil {
		return err
	}
	if r.opts.traced {
		epochs = max(2, epochs/2)
	}
	out, err := t.runTrain(epochs)
	if err != nil {
		return err
	}
	report := out
	if r.opts.traced {
		// Same budget again through the hand-assembled loop, spans on.
		if t, err = fresh(); err != nil {
			return err
		}
		traced, err := t.runTrainTraced(epochs, r.tr)
		if err != nil {
			return err
		}
		if err := trainLayerMetrics(r, t, out, traced); err != nil {
			return err
		}
		report = traced
	}
	ws := epochWindows(report.epochNs, report.stepNs, report.samples/len(report.epochNs))
	r.set("throughput_sps", sliceThroughput(ws))
	setLatency(r, ws)
	r.set("final_acc", report.finalAcc)
	r.set("norm_size", report.normSize)
	r.set("energy.norm_energy", report.normEnergy)
	r.set("core.bit_changes", float64(report.bitChanges))
	r.set("core.mean_bits_final", report.meanBits)
	r.set("data.samples", float64(report.samples))
	r.ops(int64(len(report.stepNs)), 0)
	r.check(report.lossFinite, "training loss is not finite")
	if epochs >= accuracyFloorEpochs {
		r.check(report.finalAcc >= accFloor, "final_acc %.4f below the floor %.2f", report.finalAcc, accFloor)
	}
	fmt.Fprintf(r.log, "%s: %d epochs, %d steps in %.2fs, acc %.4f, energy %.4f and size %.4f of fp32\n",
		arch, epochs, len(report.stepNs), report.wall.Seconds(), report.finalAcc, report.normEnergy, report.normSize)
	return nil
}

// trainLayerMetrics turns the traced loop's spans into the per-layer rows.
func trainLayerMetrics(r *run, t *task, ref, traced *trainOutcome) error {
	steps := float64(len(traced.stepNs))
	epochs := float64(len(traced.epochs))
	perStepMs := func(layer, name string) float64 {
		ns, _ := r.tr.total(layer, name)
		return msOf(ns) / steps
	}
	r.set("data.next_ms_per_step", perStepMs("data", "next"))
	for _, kind := range []string{"conv", "bn", "linear", "residual", "other"} {
		r.set("nn."+kind+"_fwd_ms", perStepMs("nn", kind+"_fwd"))
		r.set("nn."+kind+"_bwd_ms", perStepMs("nn", kind+"_bwd"))
	}
	r.set("nn.loss_ms", perStepMs("nn", "loss"))
	r.set("optim.step_ms_per_step", perStepMs("optim", "step"))
	r.set("core.observe_us_per_step", 1e3*perStepMs("core", "observe"))
	r.set("energy.snapshot_us_per_step", 1e3*perStepMs("energy", "snapshot"))
	adjust, _ := r.tr.total("core", "adjust")
	r.set("core.adjust_us_per_epoch", float64(adjust)/1e3/epochs)
	eval, _ := r.tr.total("train", "eval")
	r.set("train.eval_ms_per_epoch", msOf(eval)/epochs)
	stepTotal, stepSelf := r.tr.selfNs("train", "step")
	r.set("train.step_self_ms", msOf(stepSelf)/steps)
	fmt.Fprintf(r.log, "children cover %.2f%% of the step spans\n", 100*(1-float64(stepSelf)/float64(stepTotal)))

	r.set("nn.allocs_per_step", traced.allocs)
	r.set("nn.alloc_bytes_per_step", traced.allocBytes)
	layers, macs, err := t.modelShape()
	if err != nil {
		return err
	}
	r.set("nn.layers", float64(layers))
	r.set("nn.macs_per_sample", float64(macs))
	buildMs, err := t.buildMs()
	if err != nil {
		return err
	}
	r.set("models.build_ms", buildMs)

	refSps := float64(ref.samples) / ref.wall.Seconds()
	tracedSps := float64(traced.samples) / traced.wall.Seconds()
	r.set("train.trace_overhead_pct", 100*(1-tracedSps/refSps))
	faithful := 0.0
	if sameHistory(ref, traced) {
		faithful = 1
	}
	r.set("train.trace_faithful", faithful)
	return nil
}

// ---------------------------------------------------------------------
// dist_ps

const distWorkers = 2

func distWorkload(r *run) error {
	epochs := scaledEpochs(r.opts.seconds, 8.0/3)
	warm, err := setups(r, setupReps, nil, func() (*task, error) {
		t, err := newTask("smallcnn", r.opts.seed)
		if err != nil {
			return nil, err
		}
		_, err = t.runDist(distPlan{workers: distWorkers, epochs: 1})
		return t, err
	})
	if err != nil {
		return err
	}
	r.set("data.synth_build_ms", warm.synthBuildMs)
	dir, err := tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t, err := newTask("smallcnn", r.opts.seed)
	if err != nil {
		return err
	}
	w1Epochs := 0
	if r.opts.traced {
		// The traced pass also owes a single-worker baseline; both fit in
		// the budget of the untraced run. (Two epochs at least: an epoch
		// closes at the next one's first barrier release.)
		w1Epochs = max(2, epochs/5)
		epochs = max(2, epochs*3/5)
	}
	out, err := t.runDist(distPlan{workers: distWorkers, epochs: epochs, dir: dir, timeEach: r.opts.traced})
	if err != nil {
		return err
	}
	ws := out.windows()
	sps := sliceThroughput(ws)
	r.set("throughput_sps", sps)
	setLatency(r, ws)
	r.set("final_acc", out.finalAcc)
	r.set("norm_size", out.meanBits/32) // bits only rise under Tmax=+Inf, so the final size is the peak
	r.set("data.samples", float64(out.samples))
	n := float64(out.rounds)
	r.set("dist.rounds", n)
	r.set("dist.up_bytes_per_round", float64(out.upBytes)/n)
	r.set("dist.down_bytes_per_round", float64(out.downBytes)/n)
	r.set("dist.wire_bytes_per_round", float64(out.upBytes+out.downBytes)/n)
	r.set("dist.codec_calls_per_round", float64(out.codecCalls)/n)
	r.set("dist.checkpoints", float64(out.checkpoints))
	r.set("dist.publishes", float64(out.publishes))
	r.set("dist.workers_lost", float64(out.workersLost))
	r.set("dist.partial_rounds", float64(out.partial))
	r.set("dist.stale_dropped", float64(out.staleDropped))
	r.set("dist.mean_bits_final", out.meanBits)
	r.set("dist.round_ms_mean", 1e3*out.wall.Seconds()/n)

	r.ops(int64(out.rounds), int64(out.partial+out.staleDropped))
	r.check(out.workersLost == 0, "%d workers lost", out.workersLost)
	if epochs >= accuracyFloorEpochs {
		r.check(out.finalAcc >= 0.60, "final_acc %.4f below the floor 0.60", out.finalAcc)
	}
	files, err := out.verify(t)
	r.check(err == nil, "checkpoints must load: %v", err)
	fmt.Fprintf(r.log, "dist: %d epochs, %d rounds in %.2fs, acc %.4f, mean bits %.2f, %d checkpoints, %d publishes\n",
		epochs, out.rounds, out.wall.Seconds(), out.finalAcc, out.meanBits, out.checkpoints, out.publishes)
	if !r.opts.traced || err != nil {
		return nil
	}

	r.set("models.trainstate_save_ms", files.stateSaveMs)
	r.set("models.trainstate_load_ms", files.stateLoadMs)
	r.set("models.trainstate_bytes", float64(files.stateBytes))
	r.set("models.ckpt_bytes", float64(files.ckptBytes))
	r.set("models.load_ms", files.ckptLoadMs)
	r.set("dist.ckpt_stall_ms_per_round", files.stateSaveMs*float64(out.checkpoints)/n)
	r.set("dist.codec_ms_per_round", msOf(out.codecNs)/n)
	buildMs, err := t.buildMs()
	if err != nil {
		return err
	}
	r.set("models.build_ms", buildMs)
	compute, err := t.shardStepMs(distWorkers)
	if err != nil {
		return err
	}
	r.set("dist.worker_compute_ms_per_round", compute)
	r.set("dist.sync_ms_per_round", sliceQuantileMs(ws, 0.5)-compute)
	// One span per round, from barrier release to barrier release, with the
	// codec's share as its child.
	at := out.firstRound
	for _, ns := range out.roundNs {
		op := r.tr.op()
		end := at.Add(time.Duration(ns))
		id := r.tr.add(op, 0, "dist", "round", at, end)
		r.tr.add(op, id, "dist", "codec", at, at.Add(time.Duration(out.codecNs/int64(out.rounds))))
		at = end
	}

	if t, err = newTask("smallcnn", r.opts.seed); err != nil {
		return err
	}
	w1, err := t.runDist(distPlan{workers: 1, epochs: w1Epochs})
	if err != nil {
		return err
	}
	w1Sps := sliceThroughput(w1.windows())
	r.set("dist.w1_throughput_sps", w1Sps)
	r.set("dist.scaling_eff", sps/(distWorkers*w1Sps))
	return nil
}

// ---------------------------------------------------------------------
// serve_open, serve_http

// startServing repeats the serving set-up sequence — dataset, 3-epoch APT
// training, checkpoint round trip, engine compile, server start, then
// whatever listen adds (serve_http's socket) — and reports its parts.
// unlisten undoes listen before a repetition's server is closed.
func startServing(r *run, dir string, listen func(*serving) error, unlisten func()) (*serving, error) {
	discard := func(s *serving) {
		unlisten()
		s.close()
	}
	s, err := setups(r, serveSetupReps, discard, func() (*serving, error) {
		t, err := newTask("smallcnn", r.opts.seed)
		if err != nil {
			return nil, err
		}
		s, err := newServing(t, dir, r.opts.traced)
		if err != nil {
			return nil, err
		}
		r.set("data.synth_build_ms", t.synthBuildMs)
		ms, err := t.buildMs()
		if err == nil {
			r.set("models.build_ms", ms)
			err = listen(s)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	agree, err := s.agreement()
	if err != nil {
		s.close()
		return nil, err
	}
	r.set("final_acc", agree)
	r.set("infer.agree_ratio", agree)
	r.set("norm_size", s.normSize)
	r.set("models.save_ms", s.saveMs)
	r.set("models.load_ms", s.loadMs)
	r.set("models.ckpt_bytes", float64(s.ckptBytes))
	r.set("infer.compile_ms", s.compileMs)
	fmt.Fprintf(r.log, "serving set-up: train %.0f ms, save %.1f ms, load %.1f ms, compile %.1f ms\n",
		s.trainMs, s.saveMs, s.loadMs, s.compileMs)
	return s, nil
}

// countPhase books a phase's requests as operations and prints its row.
func countPhase(r *run, name string, p *phase) {
	failed, refused := p.failed()
	r.ops(int64(len(p.requests)), int64(failed))
	lat := p.latencies()
	fmt.Fprintf(r.log, "%-12s sent %6d ok %6d failed %4d (refused %d)  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms\n",
		name, len(p.requests), len(lat), failed, refused, quantileMs(lat, .5), quantileMs(lat, .9), quantileMs(lat, .99))
}

// setServeCounters reports the server's own counters.
func setServeCounters(r *run, s *serving) {
	c := s.counters()
	r.set("serve.batches", float64(c.batches))
	r.set("serve.rejected", float64(c.rejected))
	r.set("serve.dropped", float64(c.dropped))
	r.set("serve.errored", float64(c.errored))
}

// batchStats summarizes the engine calls of one phase.
func batchStats(bs []batchRec) (meanBatch, engineMs float64, busy time.Duration) {
	if len(bs) == 0 {
		return 0, 0, 0
	}
	samples := 0
	for _, b := range bs {
		samples += b.n
		busy += b.end.Sub(b.start)
	}
	return float64(samples) / float64(len(bs)), msOf(busy.Nanoseconds()) / float64(len(bs)), busy
}

const (
	phaseARPS    = 2000
	phaseCFlight = 64
	rungLimitMs  = 10.0 // ladder: p90 must stay within this
)

var ladderRPS = []int{8000, 16000, 24000, 32000}

func serveOpenWorkload(r *run) error {
	dir, err := tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := startServing(r, dir, func(*serving) error { return nil }, func() {})
	if err != nil {
		return err
	}
	defer s.close()
	total := time.Duration(r.opts.seconds) * time.Second
	// Untraced: A 40%, C 60% (C is CPU-bound, so it is the noisier of the
	// two and gets the longer window). Traced: A 30%, the ladder 40%, C 30%.
	durA, durB, durC := total*4/10, time.Duration(0), total*6/10
	if r.opts.traced {
		durA, durB, durC = total*3/10, total/10, total*3/10
	}

	// Phase A: open loop, Poisson arrivals at 2000 rps.
	pA := runOpen(poissonArrivals(r.opts.seed, phaseARPS, durA), durA, s.classify)
	countPhase(r, "A open 2000", pA)
	setLatency(r, pA.windows(loadSlice, 1))
	checkLateness(r, pA)
	if r.opts.traced {
		serveOpenPhaseATrace(r, s, pA)
		serveLadder(r, s, durB)
	}

	// Phase C: closed loop, 64 requests in flight.
	pC := runClosed(phaseCFlight, durC, func(_, i int) error { return s.classify(i) })
	countPhase(r, "C closed 64", pC)
	r.set("throughput_sps", sliceThroughput(pC.windows(loadSlice, 1)))
	if r.opts.traced {
		bs := s.timed.take()
		mean, engineMs, busy := batchStats(bs)
		r.set("serve.mean_batch_c", mean)
		r.set("serve.engine_ms_per_batch", engineMs)
		r.set("serve.engine_busy_share", busy.Seconds()/(pC.window.Seconds()*serveWorkers))
		if err := s.inferRows(r); err != nil {
			return err
		}
	}
	setServeCounters(r, s)
	return nil
}

// checkLateness reports how late the open-loop generator ran and applies
// the validity rule.
func checkLateness(r *run, p *phase) {
	r.set("serve.gen_late_ms_mean", p.meanLateMs())
	if late := p.medianLateMs(); late > maxGenLateMs {
		r.invalidate("generator sent the median request %.3f ms late (limit %.1f ms): the schedule was not offered", late, maxGenLateMs)
	}
}

// serveOpenPhaseATrace attributes each phase A request to the engine call
// that served it (the last batch to end before the request completed) and
// records request → wait, engine, reply spans. By construction the three
// stages sum to the request's wall time.
func serveOpenPhaseATrace(r *run, s *serving, pA *phase) {
	bs := s.timed.take()
	mean, _, _ := batchStats(bs)
	r.set("serve.mean_batch_a", mean)
	r.set("serve.latency_p99_ms", quantileMs(pA.latencies(), 0.99))
	var waits []int64
	for _, q := range pA.requests {
		if q.failed {
			continue
		}
		due, done := pA.start.Add(q.due), pA.start.Add(q.done)
		i := sort.Search(len(bs), func(i int) bool { return bs[i].end.After(done) }) - 1
		if i < 0 {
			continue
		}
		b := bs[i]
		if b.start.Before(due) {
			b.start = due
		}
		op := r.tr.op()
		id := r.tr.add(op, 0, "serve", "request", due, done)
		r.tr.add(op, id, "serve", "wait", due, b.start)
		r.tr.add(op, id, "infer", "engine", b.start, b.end)
		r.tr.add(op, id, "serve", "reply", b.end, done)
		waits = append(waits, q.latency().Nanoseconds()-b.end.Sub(b.start).Nanoseconds())
	}
	r.set("serve.wait_ms_p50", quantileMs(sortedCopy(waits), 0.5))
}

// serveLadder offers four fixed rates and reports p90 at each and the
// highest that held: p90 within the limit, nothing failed or refused, no
// growing backlog (the last quarter's median latency within twice the
// first quarter's plus a millisecond), generator on schedule. Refusals
// past the knee are the ladder's finding, not failed operations of the
// workload; a wrong answer at any rate is.
func serveLadder(r *run, s *serving, per time.Duration) {
	maxOK := 0.0
	for k, rps := range ladderRPS {
		p := runOpen(poissonArrivals(r.opts.seed+uint64(k)+1, float64(rps), per), per, s.classify)
		failed, refused := p.failed()
		r.ops(int64(len(p.requests)), int64(failed-refused))
		lat := p.latencies()
		p90 := quantileMs(lat, 0.9)
		q := len(p.requests) / 4
		firstQ, lastQ := &phase{requests: p.requests[:q]}, &phase{requests: p.requests[len(p.requests)-q:]}
		growing := quantileMs(lastQ.latencies(), 0.5) > 2*quantileMs(firstQ.latencies(), 0.5)+1
		ok := failed == 0 && p90 <= rungLimitMs && !growing && p.medianLateMs() <= maxGenLateMs
		if ok {
			maxOK = float64(rps)
		}
		r.set("serve.ladder_p90_ms_"+strconv.Itoa(rps/1000)+"k", p90)
		fmt.Fprintf(r.log, "B open %5d  sent %6d failed %5d (refused %d)  p90 %.3f ms  late %.3f ms  growing=%v ok=%v\n",
			rps, len(p.requests), failed, refused, p90, p.meanLateMs(), growing, ok)
		s.timed.take()
	}
	r.set("serve.max_ok_rps", maxOK)
}

const (
	httpConns    = 2
	httpPerBatch = 16
)

func serveHTTPWorkload(r *run) error {
	dir, err := tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var (
		hs  *http.Server
		url string
	)
	served := make(chan error, 1)
	stopHTTP := func() {
		if hs != nil {
			_ = hs.Shutdown(context.Background())
			<-served
			hs = nil
		}
	}
	defer stopHTTP()
	// The listener is part of the set-up a deployment pays.
	var bodies [][]byte
	s, err := startServing(r, dir, func(s *serving) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs = &http.Server{Handler: s.handler()}
		url = "http://" + ln.Addr().String() + "/classify"
		go func(hs *http.Server) { served <- hs.Serve(ln) }(hs)
		bodies = httpBodies(s)
		return nil
	}, stopHTTP)
	if err != nil {
		return err
	}
	defer s.close()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: httpConns}}
	defer client.CloseIdleConnections()
	var non200 int64
	post := func(_, i int) error {
		j := i % len(bodies)
		resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[j]))
		if err != nil {
			return err
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		return checkReply(s, j, resp.StatusCode, reply)
	}
	total := time.Duration(r.opts.seconds) * time.Second
	loop := total
	if r.opts.traced {
		loop = total * 6 / 10
	}
	p := runClosed(httpConns, loop, post)
	countPhase(r, "loopback", p)
	for _, err := range p.errs {
		var he *httpError
		if errors.As(err, &he) {
			non200++
		}
	}
	ws := p.windows(loadSlice, httpPerBatch)
	r.set("throughput_sps", sliceThroughput(ws))
	setLatency(r, ws)
	r.set("serve.status_non200", float64(non200))
	r.set("serve.bytes_in_per_req", float64(len(bodies[0])))
	if r.opts.traced {
		if err := serveHTTPTrace(r, s, p, bodies, total-loop); err != nil {
			return err
		}
	}
	setServeCounters(r, s)
	return nil
}

// serveHTTPTrace splits the loopback request into socket, HTTP overhead and
// engine by sending the same bodies through Handler().ServeHTTP in-process,
// with a recorder and no socket, for dur.
func serveHTTPTrace(r *run, s *serving, p *phase, bodies [][]byte, dur time.Duration) error {
	lat := p.latencies()
	r.set("serve.latency_p99_ms", quantileMs(lat, 0.99))
	bs := s.timed.take()
	mean, engineMs, busy := batchStats(bs)
	r.set("serve.mean_batch_c", mean)
	r.set("serve.engine_ms_per_batch", engineMs)
	r.set("serve.engine_busy_share", busy.Seconds()/(p.window.Seconds()*serveWorkers))
	for _, q := range p.requests {
		r.tr.add(r.tr.op(), 0, "serve", "http_request", p.start.Add(q.due), p.start.Add(q.done))
	}
	for _, b := range bs {
		r.tr.add(r.tr.op(), 0, "infer", "engine", b.start, b.end)
	}

	h := s.handler()
	var bytesOut atomic.Int64
	inproc := runClosed(httpConns, dur, func(_, i int) error {
		j := i % len(bodies)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(bodies[j])))
		bytesOut.Store(int64(rec.Body.Len()))
		return checkReply(s, j, rec.Code, rec.Body.Bytes())
	})
	countPhase(r, "in-process", inproc)
	_, _, inBusy := batchStats(s.timed.take())
	handlerMs := quantileMs(inproc.latencies(), 0.5)
	enginePerReq := msOf(inBusy.Nanoseconds()) / float64(max(1, len(inproc.requests)))
	r.set("serve.handler_ms_per_req", handlerMs)
	r.set("serve.http_overhead_ms_per_req", handlerMs-enginePerReq)
	r.set("serve.socket_ms_per_req", quantileMs(lat, 0.5)-handlerMs)
	r.set("serve.bytes_out_per_req", float64(bytesOut.Load()))
	for _, q := range inproc.requests {
		r.tr.add(r.tr.op(), 0, "serve", "handler", inproc.start.Add(q.due), inproc.start.Add(q.done))
	}
	fmt.Fprintf(r.log, "request p50 %.3f ms = socket %.3f + http overhead %.3f + engine %.3f\n",
		quantileMs(lat, 0.5), quantileMs(lat, 0.5)-handlerMs, handlerMs-enginePerReq, enginePerReq)
	return s.inferRows(r)
}

// httpBodies pre-encodes the POST bodies: consecutive runs of 16 test
// samples, as {"inputs": [[...], ...]}.
func httpBodies(s *serving) [][]byte {
	var bodies [][]byte
	for at := 0; at+httpPerBatch <= len(s.samples); at += httpPerBatch {
		body, err := json.Marshal(map[string][][]float32{"inputs": s.samples[at : at+httpPerBatch]})
		if err != nil {
			panic(err) // float32 slices always encode
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// httpError is a reply with a status other than 200.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.body) }

// checkReply checks body j's reply: 200 and exactly the classes the engine
// gives the same samples.
func checkReply(s *serving, j, status int, reply []byte) error {
	if status != http.StatusOK {
		return &httpError{status, strings.TrimSpace(string(reply))}
	}
	var got struct {
		Classes []int `json:"classes"`
	}
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	want := s.want[j*httpPerBatch : (j+1)*httpPerBatch]
	if len(got.Classes) != len(want) {
		return fmt.Errorf("body %d: %d classes, want %d", j, len(got.Classes), len(want))
	}
	for i := range want {
		if got.Classes[i] != want[i] {
			return fmt.Errorf("body %d sample %d: served class %d, engine says %d", j, i, got.Classes[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------

// tempDir makes a private directory under out/ for a run's checkpoints;
// the benchmark writes nowhere outside its checkout.
func tempDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
