package main

// adapter.go is the benchmark's whole coupling surface: the only file
// that names identifiers of the repository's packages. Everything else in
// bench/ is harness (flags, metrics, tracing, load generation, checking)
// and talks to the system through the types below. README.md lists the
// surface so that a change which removes one of these APIs is preceded by
// a change to the benchmark. The tensor kernels are reached only through
// entry points that have a production caller today, never through the
// superseded generations ROADMAP item 3 deletes.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

func simdFeatures() string { return tensor.SIMDFeatures() }

// Task geometry: the experiments.CI() profile (SynthCIFAR 16×16, 1024
// train / 384 test, batch 64, pad-2 augmentation, noise 0.8).
const (
	inputSize = 16
	trainN    = 1024
	testN     = 384
	batchSize = 64
	augPad    = 2
)

// task is one seed-derived dataset plus the recipe for its backbone.
type task struct {
	arch    string
	classes int
	width   float64
	seed    uint64
	train   data.Dataset // augmented
	test    data.Dataset
	raw     data.Dataset // un-augmented training split (calibration)

	synthBuildMs float64
}

// newTask renders the SynthCIFAR splits for an architecture: SmallCNN
// (width 1) learns the 4-class task, ResNet-20 (width 0.25) the 10-class
// one.
func newTask(arch string, seed uint64) (*task, error) {
	t := &task{arch: arch, seed: seed, classes: 4, width: 1}
	if arch == "resnet20" {
		t.classes, t.width = 10, 0.25
	}
	t0 := time.Now()
	tr, te, err := data.NewSynth(data.SynthConfig{
		Classes: t.classes, Train: trainN, Test: testN, Size: inputSize, Seed: seed, Noise: 0.8,
	})
	if err != nil {
		return nil, err
	}
	t.synthBuildMs = msSince(t0)
	aug, err := data.NewAugmented(tr, augPad, inputSize, tensor.NewRNG(seed^0x5EED))
	if err != nil {
		return nil, err
	}
	t.train, t.test, t.raw = aug, te, tr
	return t, nil
}

func (t *task) modelConfig() models.Config {
	return models.Config{Classes: t.classes, InputSize: inputSize, Width: t.width, Seed: t.seed + 101}
}

func (t *task) build() (*models.Model, error) { return models.Build(t.arch, t.modelConfig()) }

// buildMs times one models.Build of the task's backbone.
func (t *task) buildMs() (float64, error) {
	t0 := time.Now()
	_, err := t.build()
	return msSince(t0), err
}

// aptConfig is the paper's headline controller setting (start at 6 bits,
// Tmin 6, never reduce), profiling four times per epoch.
func aptConfig(stepsPerEpoch int) core.Config {
	c := core.DefaultConfig()
	c.InitBits, c.Tmin, c.Tmax = 6, 6, math.Inf(1)
	c.Interval = stepsPerEpoch / 4
	if c.Interval < 1 {
		c.Interval = 1
	}
	return c
}

// trainConfig assembles the APT training run both training workloads and
// the serving set-up use: SGD momentum 0.9, weight decay 1e-4, step
// schedule with milestones at 2/3 and 13/15 of the epoch budget.
func (t *task) trainConfig(m *models.Model, epochs int) (train.Config, error) {
	ctrl, err := core.NewController(aptConfig(trainN/batchSize), m.Params())
	if err != nil {
		return train.Config{}, err
	}
	return train.Config{
		Model: m, Train: t.train, Test: t.test, BatchSize: batchSize, Epochs: epochs,
		Schedule: optim.StepSchedule{Base: 0.1, Milestones: []int{epochs * 2 / 3, epochs * 13 / 15}, Factor: 0.1},
		Momentum: 0.9, WeightDecay: 1e-4, APT: ctrl, Seed: t.seed,
	}, nil
}

// trainOutcome is what a training run (train.Run or the traced loop)
// produced.
type trainOutcome struct {
	wall       time.Duration
	samples    int
	stepNs     []int64
	epochNs    []int64 // each epoch's duration, its evaluation included
	finalAcc   float64
	normEnergy float64
	normSize   float64
	meanBits   float64
	bitChanges int
	lossFinite bool
	epochs     []train.EpochStats
	model      *models.Model
	// traced loop only: heap allocations per step, evaluation included
	allocs, allocBytes float64
}

func (o *trainOutcome) fill(h *train.History) {
	o.finalAcc = h.FinalAcc()
	o.normEnergy = h.NormalizedEnergy()
	o.normSize = h.NormalizedSize()
	o.epochs = h.Epochs
	o.lossFinite = true
	for _, e := range h.Epochs {
		if math.IsNaN(e.TrainLoss) || math.IsInf(e.TrainLoss, 0) {
			o.lossFinite = false
		}
	}
	if n := len(h.Epochs); n > 0 {
		o.meanBits = h.Epochs[n-1].MeanBits
	}
	if c := h.Controller; c != nil {
		for _, name := range c.TracedParams() {
			bits := c.BitsTrace(name)
			for i := 1; i < len(bits); i++ {
				if bits[i] != bits[i-1] {
					o.bitChanges++
				}
			}
		}
	}
}

// epochStamper is train.Config.Log: train.Run writes one line per epoch,
// after that epoch's evaluation, so each Write marks an epoch's end.
type epochStamper struct{ ends []time.Time }

func (s *epochStamper) Write(p []byte) (int, error) {
	s.ends = append(s.ends, time.Now())
	return len(p), nil
}

// runTrain runs train.Run untraced. Steps are stamped by the
// PostStepHook; a step's latency runs from the previous stamp (or the
// previous epoch's end) to its own.
func (t *task) runTrain(epochs int) (*trainOutcome, error) {
	m, err := t.build()
	if err != nil {
		return nil, err
	}
	cfg, err := t.trainConfig(m, epochs)
	if err != nil {
		return nil, err
	}
	stepsPerEpoch := (trainN + batchSize - 1) / batchSize
	stamps := make([]time.Time, 0, epochs*stepsPerEpoch)
	cfg.PostStepHook = func([]*nn.Param) error {
		stamps = append(stamps, time.Now())
		return nil
	}
	log := &epochStamper{}
	cfg.Log = log
	start := time.Now()
	h, err := train.Run(cfg)
	if err != nil {
		return nil, err
	}
	o := &trainOutcome{wall: time.Since(start), samples: epochs * trainN, model: m}
	o.fill(h)
	prev := start
	for i, s := range stamps {
		if i > 0 && i%stepsPerEpoch == 0 && i/stepsPerEpoch-1 < len(log.ends) {
			prev = log.ends[i/stepsPerEpoch-1]
		}
		o.stepNs = append(o.stepNs, s.Sub(prev).Nanoseconds())
		prev = s
	}
	prev = start
	for _, end := range log.ends {
		o.epochNs = append(o.epochNs, end.Sub(prev).Nanoseconds())
		prev = end
	}
	return o, nil
}

// layerKind groups a layer's spans into the nn.* rows.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.BatchNorm2D:
		return "bn"
	case *nn.Linear:
		return "linear"
	case *nn.Residual:
		return "residual"
	default:
		return "other"
	}
}

// runTrainTraced assembles the training step from the same public calls
// train.Run makes, with a span around each: Loader.Next → per-layer
// Forward → loss → per-layer Backward → Controller.ObserveBatch →
// SGD.Step → energy.Snapshot + Meter.Charge; per epoch AdjustEpoch and
// train.Evaluate. The outcome's history is compared against train.Run's
// (sameHistory) so a refactor of train.Run flags the trace as unfaithful
// instead of silently measuring a different loop.
func (t *task) runTrainTraced(epochs int, tr *tracer) (*trainOutcome, error) {
	m, err := t.build()
	if err != nil {
		return nil, err
	}
	cfg, err := t.trainConfig(m, epochs)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed ^ 0xA9F1) // train.Run's loader stream
	loader, err := data.NewLoader(cfg.Train, cfg.BatchSize, rng.Split())
	if err != nil {
		return nil, err
	}
	params := m.Params()
	layers := m.Layers()
	kinds := make([]string, len(layers))
	for i, l := range layers {
		kinds[i] = layerKind(l)
	}
	opt := optim.NewSGD(cfg.Schedule.LR(0), cfg.Momentum, cfg.WeightDecay)
	em := energy.DefaultModel()
	meter := energy.NewMeter(em)
	loss := nn.SoftmaxCrossEntropy{}
	hist := &train.History{Controller: cfg.APT, FP32SizeBits: energy.FP32SizeBits(params)}
	hist.FP32Energy = em.FP32Reference(energy.Snapshot(layers), int64(epochs)*int64(cfg.Train.Len()))

	o := &trainOutcome{samples: epochs * trainN, model: m}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for epoch := 0; epoch < epochs; epoch++ {
		lr := cfg.Schedule.LR(epoch)
		opt.SetLR(lr)
		eop := tr.op()
		espan := tr.begin(eop, 0, "train", "epoch")
		var lossSum float64
		batches := 0
		for {
			op := tr.op()
			step := tr.begin(op, espan, "train", "step")
			s := tr.begin(op, step, "data", "next")
			x, labels, ok := loader.Next()
			tr.end(s)
			if !ok {
				// The end-of-epoch reshuffle is not a step.
				tr.end(step)
				tr.rename(step, "reshuffle")
				break
			}
			for i, l := range layers {
				s = tr.begin(op, step, "nn", kinds[i]+"_fwd")
				x, err = l.Forward(x, true)
				tr.end(s)
				if err != nil {
					return nil, fmt.Errorf("traced forward %s: %w", l.Name(), err)
				}
			}
			s = tr.begin(op, step, "nn", "loss")
			lv, d, err := loss.Forward(x, labels)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			lossSum += lv
			for i := len(layers) - 1; i >= 0; i-- {
				s = tr.begin(op, step, "nn", kinds[i]+"_bwd")
				d, err = layers[i].Backward(d)
				tr.end(s)
				if err != nil {
					return nil, fmt.Errorf("traced backward %s: %w", layers[i].Name(), err)
				}
			}
			s = tr.begin(op, step, "core", "observe")
			cfg.APT.ObserveBatch()
			tr.end(s)
			s = tr.begin(op, step, "optim", "step")
			err = opt.Step(params)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			s = tr.begin(op, step, "energy", "snapshot")
			meter.Charge(energy.Snapshot(layers), len(labels))
			tr.end(s)
			tr.end(step)
			o.stepNs = append(o.stepNs, tr.durNs(step))
			batches++
		}
		s := tr.begin(eop, espan, "core", "adjust")
		_, err := cfg.APT.AdjustEpoch()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin(eop, espan, "train", "eval")
		acc, err := train.Evaluate(m, cfg.Test, cfg.BatchSize)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		tr.end(espan)
		o.epochNs = append(o.epochNs, tr.durNs(espan))
		hist.Epochs = append(hist.Epochs, train.EpochStats{
			Epoch: epoch, TrainLoss: lossSum / float64(batches), TestAcc: acc,
			CumEnergy: meter.Total(), SizeBits: energy.ModelSizeBits(params),
			MeanBits: cfg.APT.MeanBits(), LR: lr,
		})
	}
	o.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	o.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(o.stepNs))
	o.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(o.stepNs))
	o.fill(hist)
	return o, nil
}

// sameHistory reports whether two runs recorded the same per-epoch loss,
// accuracy, energy, size and mean bitwidth, bit for bit.
func sameHistory(a, b *trainOutcome) bool {
	if len(a.epochs) != len(b.epochs) || len(a.epochs) == 0 {
		return false
	}
	for i := range a.epochs {
		x, y := a.epochs[i], b.epochs[i]
		if x.TrainLoss != y.TrainLoss || x.TestAcc != y.TestAcc || x.CumEnergy != y.CumEnergy ||
			x.SizeBits != y.SizeBits || x.MeanBits != y.MeanBits {
			return false
		}
	}
	return true
}

// modelShape reports the layer count and forward MACs of the backbone.
func (t *task) modelShape() (layers int, macs int64, err error) {
	m, err := t.build()
	if err != nil {
		return 0, 0, err
	}
	nn.WalkLayers(m.Layers(), func(nn.Layer) { layers++ })
	return layers, m.Net.MACs(), nil
}

// ---------------------------------------------------------------------
// dist

// timedCodec decorates the run's GradCodec. Codecs run on the server's
// ingest path in worker order, so the first Encode of every
// workers×parameters calls marks a round's barrier release; with timeEach
// set it also accumulates the time spent inside Encode.
type timedCodec struct {
	inner    dist.GradCodec
	perRound int
	timeEach bool
	calls    int
	busy     time.Duration
	rounds   []time.Time
}

func (c *timedCodec) Name() string { return c.inner.Name() }

func (c *timedCodec) Encode(g *tensor.Tensor) int64 {
	if c.calls%c.perRound == 0 {
		c.rounds = append(c.rounds, time.Now())
	}
	c.calls++
	if !c.timeEach {
		return c.inner.Encode(g)
	}
	t0 := time.Now()
	n := c.inner.Encode(g)
	c.busy += time.Since(t0)
	return n
}

// distPlan is one dist.Run: the dist_ps configuration when dir is set
// (checkpoints and publishing on), a plain run otherwise.
type distPlan struct {
	workers  int
	epochs   int
	dir      string // checkpoint + publish directory; "" disables both
	timeEach bool
}

const shardBatch = 32 // per-worker batch

type distOutcome struct {
	workers      int
	wall         time.Duration
	rounds       int
	samples      int
	roundNs      []int64
	firstRound   time.Time
	codecNs      int64
	codecCalls   int
	upBytes      int64
	downBytes    int64
	finalAcc     float64
	meanBits     float64
	workersLost  int
	partial      int
	staleDropped int
	checkpoints  int
	publishes    int
	ckptPath     string
	pubPath      string
}

// runDist drives the concurrent parameter server: SmallCNN replicas, an
// 8-bit uplink codec, APT on the server observing every round, bit-packed
// broadcast.
func (t *task) runDist(p distPlan) (*distOutcome, error) {
	probe, err := t.build()
	if err != nil {
		return nil, err
	}
	codec := &timedCodec{inner: dist.KBitCodec{Bits: 8}, perRound: p.workers * len(probe.Params()), timeEach: p.timeEach}
	apt := aptConfig(1)
	cfg := dist.Config{
		Workers: p.workers, Build: t.build, Train: t.train, Test: t.test,
		BatchSize: shardBatch, Epochs: p.epochs, LR: 0.1, Momentum: 0.9,
		Codec: codec, Seed: t.seed, Concurrent: true,
		APT: &apt, QuantBroadcast: true,
	}
	o := &distOutcome{workers: p.workers}
	if p.dir != "" {
		o.ckptPath = filepath.Join(p.dir, "train.state")
		o.pubPath = filepath.Join(p.dir, "serving.ckpt")
		cfg.CheckpointPath, cfg.CheckpointEvery = o.ckptPath, 16
		cfg.PublishPath, cfg.PublishEvery = o.pubPath, 32
	}
	start := time.Now()
	st, err := dist.Run(cfg)
	if err != nil {
		return nil, err
	}
	o.wall = time.Since(start)
	o.rounds = st.Rounds
	o.samples = st.Rounds * p.workers * shardBatch
	o.upBytes, o.downBytes = st.UpBytes, st.DownBytes
	o.finalAcc, o.meanBits = st.FinalAcc(), st.MeanBits
	o.workersLost, o.partial, o.staleDropped = st.WorkersLost, st.PartialRounds, st.StaleDropped
	o.checkpoints, o.publishes = st.Checkpoints, int(st.Publishes)
	o.codecNs, o.codecCalls = codec.busy.Nanoseconds(), codec.calls
	if len(codec.rounds) > 0 {
		o.firstRound = codec.rounds[0]
	}
	for i := 1; i < len(codec.rounds); i++ {
		o.roundNs = append(o.roundNs, codec.rounds[i].Sub(codec.rounds[i-1]).Nanoseconds())
	}
	return o, nil
}

// windows slices the run by epoch: the rounds between one epoch's first
// barrier release and the next's, evaluation and checkpoints included.
func (o *distOutcome) windows() []window {
	per := trainN / (o.workers * shardBatch)
	var epochNs []int64
	for k := 0; (k+1)*per <= len(o.roundNs); k++ {
		var sum int64
		for _, ns := range o.roundNs[k*per : (k+1)*per] {
			sum += ns
		}
		epochNs = append(epochNs, sum)
	}
	return epochWindows(epochNs, o.roundNs[:len(epochNs)*per], per*o.workers*shardBatch)
}

// distFiles is what verify learnt about the files a run left behind.
type distFiles struct {
	stateSaveMs, stateLoadMs, ckptLoadMs float64
	stateBytes, ckptBytes                int64
}

// verify checks that the run's last TrainState and published serving
// checkpoint load, timing both and a save of the state.
func (o *distOutcome) verify(t *task) (distFiles, error) {
	var f distFiles
	t0 := time.Now()
	st, err := models.LoadTrainState(o.ckptPath)
	if err != nil {
		return f, fmt.Errorf("load train state: %w", err)
	}
	f.stateLoadMs = msSince(t0)
	again := o.ckptPath + ".again"
	t0 = time.Now()
	if err := models.SaveTrainState(again, st); err != nil {
		return f, fmt.Errorf("save train state: %w", err)
	}
	f.stateSaveMs = msSince(t0)
	f.stateBytes = fileSize(again)
	t0 = time.Now()
	if _, err := models.LoadAutoFile(o.pubPath, "", 0, t.modelConfig()); err != nil {
		return f, fmt.Errorf("load published checkpoint: %w", err)
	}
	f.ckptLoadMs = msSince(t0)
	f.ckptBytes = fileSize(o.pubPath)
	return f, nil
}

// shardStepMs times the workers' share of a round standalone: one replica
// per worker runs forward, loss and backward on a 32-sample shard, all
// concurrently as in the engine; the result is the lower quartile, over the
// repetitions, of the time until the slowest finished — the same quiet
// quartile the round latency it is subtracted from is reported at.
func (t *task) shardStepMs(workers int) (float64, error) {
	const reps = 30
	type rep struct {
		m      *models.Model
		x      *tensor.Tensor
		labels []int
	}
	rs := make([]rep, workers)
	loader, err := data.NewLoader(t.train, shardBatch, tensor.NewRNG(t.seed))
	if err != nil {
		return 0, err
	}
	for w := range rs {
		m, err := t.build()
		if err != nil {
			return 0, err
		}
		if _, err := core.NewController(aptConfig(1), m.Params()); err != nil {
			return 0, err
		}
		x, labels, _ := loader.Next()
		rs[w] = rep{m, x, labels}
	}
	loss := nn.SoftmaxCrossEntropy{}
	times := make([]float64, 0, reps)
	errs := make([]error, workers)
	for i := 0; i < reps+1; i++ {
		var wg sync.WaitGroup
		wg.Add(workers)
		t0 := time.Now()
		for w := range rs {
			go func(w int) {
				defer wg.Done()
				r := rs[w]
				logits, err := r.m.Net.Forward(r.x, true)
				if err == nil {
					var d *tensor.Tensor
					if _, d, err = loss.Forward(logits, r.labels); err == nil {
						_, err = r.m.Net.Backward(d)
					}
				}
				for _, p := range r.m.Params() {
					p.ZeroGrad()
				}
				errs[w] = err
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, err
		}
		if i > 0 { // the first repetition grows the layer arenas
			times = append(times, msSince(t0))
		}
	}
	return quartile(times, 0.25), nil
}

// ---------------------------------------------------------------------
// serving

// batchRec is one engine call seen by the timing Classifier decorator.
type batchRec struct {
	start, end time.Time
	n          int
}

// timedEngine decorates the server's Classifier; it is passed as
// serve.Config.Engine (with explicit input geometry) in traced runs only.
type timedEngine struct {
	inner   serve.Classifier
	mu      sync.Mutex
	batches []batchRec
}

func (e *timedEngine) Classify(x *tensor.Tensor) ([]int, error) {
	t0 := time.Now()
	out, err := e.inner.Classify(x)
	t1 := time.Now()
	e.mu.Lock()
	e.batches = append(e.batches, batchRec{t0, t1, x.Dim(0)})
	e.mu.Unlock()
	return out, err
}

// take returns the batches recorded so far, ordered by end time, and
// forgets them.
func (e *timedEngine) take() []batchRec {
	e.mu.Lock()
	out := e.batches
	e.batches = nil
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].end.Before(out[j].end) })
	return out
}

// Serving defaults of cmd/aptserve.
const (
	serveWorkers  = 2
	serveMaxBatch = 32
	serveMaxDelay = 2 * time.Millisecond
	serveEpochs   = 3
)

// serving is a started serve.Server over an int8 engine compiled from a
// freshly trained SmallCNN, plus the test samples it is asked to classify
// and the classes the engine itself gives them.
type serving struct {
	srv     *serve.Server
	eng     *infer.Engine
	float   *models.Model
	timed   *timedEngine // nil when tracing is off
	flat    []float32    // the test split, packed
	samples [][]float32  // per-sample views of flat
	want    []int        // Engine.Classify on the same samples: the bit-identity oracle

	trainMs, saveMs, loadMs, compileMs float64
	ckptBytes                          int64
	normSize                           float64
}

// newServing is the serving set-up a deployment pays: train (3 epochs),
// save the bit-packed checkpoint, load it back, compile the int8 engine,
// start the server.
func newServing(t *task, dir string, traced bool) (*serving, error) {
	t0 := time.Now()
	out, err := t.runTrain(serveEpochs)
	if err != nil {
		return nil, err
	}
	s := &serving{trainMs: msSince(t0)}
	path := filepath.Join(dir, "model.ckpt")
	t0 = time.Now()
	if err := models.SaveFileAtomic(path, out.model, 1); err != nil {
		return nil, err
	}
	s.saveMs = msSince(t0)
	s.ckptBytes = fileSize(path)
	t0 = time.Now()
	m, err := models.LoadAutoFile(path, "", 0, t.modelConfig())
	if err != nil {
		return nil, err
	}
	s.loadMs = msSince(t0)
	s.float = m
	calib, _, err := data.PackBatch(t.raw, 64)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	s.eng, err = infer.Compile(m, infer.Config{Calibration: calib})
	if err != nil {
		return nil, err
	}
	s.compileMs = msSince(t0)
	s.normSize = float64(s.eng.SizeBytes()*8) / float64(energy.FP32SizeBits(m.Params()))

	x, _, err := data.PackBatch(t.test, testN)
	if err != nil {
		return nil, err
	}
	s.flat = x.Data()
	per := x.Len() / testN
	for i := 0; i < testN; i++ {
		s.samples = append(s.samples, s.flat[i*per:(i+1)*per])
	}
	// The oracle, in batches of 64 so the engine's scratch stays at serving
	// size (the engine is batch-invariant, so the batching does not matter).
	for at := 0; at < testN; at += 64 {
		classes, err := s.eng.Classify(s.batchAt(at, 64))
		if err != nil {
			return nil, err
		}
		s.want = append(s.want, classes...)
	}
	cfg := serve.Config{Engine: s.eng, Workers: serveWorkers, MaxBatch: serveMaxBatch, MaxDelay: serveMaxDelay}
	if traced {
		s.timed = &timedEngine{inner: s.eng}
		cfg.Engine = s.timed
		cfg.InC, cfg.InH, cfg.InW = s.eng.InputShape()
	}
	if s.srv, err = serve.New(cfg); err != nil {
		return nil, err
	}
	// One request through the queue, so the first timed one is not cold.
	if err := s.classify(0); err != nil {
		s.srv.Close()
		return nil, err
	}
	if s.timed != nil {
		s.timed.take()
	}
	return s, nil
}

// classify sends test sample i (modulo the split) through the server and
// checks the served class against the engine's own answer.
func (s *serving) classify(i int) error {
	i %= len(s.samples)
	got, err := s.srv.Classify(s.samples[i])
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return errRefused
	case err != nil:
		return err
	case got != s.want[i]:
		return fmt.Errorf("sample %d: served class %d, engine says %d", i, got, s.want[i])
	}
	return nil
}

func (s *serving) handler() http.Handler { return s.srv.Handler() }

func (s *serving) close() { s.srv.Close() }

type serveCounters struct{ batches, rejected, dropped, errored uint64 }

func (s *serving) counters() serveCounters {
	st := s.srv.Stats()
	return serveCounters{st.Batches, st.Rejected, st.Dropped, st.Errored}
}

// batchAt packs n test samples starting at sample `at` as one
// (n, C, H, W) tensor.
func (s *serving) batchAt(at, n int) *tensor.Tensor {
	c, h, w := s.eng.InputShape()
	per := c * h * w
	return tensor.MustFromSlice(s.flat[at*per:(at+n)*per], n, c, h, w)
}

func (s *serving) batch(n int) *tensor.Tensor { return s.batchAt(0, n) }

// agreement is the share of test samples on which the int8 engine's class
// equals the float model's argmax: how faithfully the deployed service
// reproduces the model that was trained. (Label accuracy would mostly
// measure how little a 3-epoch model has learnt, and swings by a quarter
// from seed to seed.)
func (s *serving) agreement() (float64, error) {
	// Batches of 64, so the float model's arenas stay at training size and
	// do not set the process's peak RSS.
	const chunk = 64
	agree := 0
	for at := 0; at+chunk <= len(s.samples); at += chunk {
		logits, err := s.float.Net.Forward(s.batchAt(at, chunk), false)
		if err != nil {
			return 0, err
		}
		for i := 0; i < chunk; i++ {
			if logits.ArgMaxRow(i) == s.want[at+i] {
				agree++
			}
		}
	}
	return float64(agree) / float64(len(s.samples)/chunk*chunk), nil
}

// inferRows measures the engine standalone: forward latency by batch
// size, the float model's forward, the stage shares of the public
// ForwardProfile, allocations and lowering choices.
func (s *serving) inferRows(r *run) error {
	batch := s.batch
	var firstErr error
	forward := func(x *tensor.Tensor) func() {
		return func() {
			if _, err := s.eng.Forward(x); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	r.set("infer.forward_b1_us", timeOp(forward(batch(1)))/1e3)
	r.set("infer.forward_b16_us", timeOp(forward(batch(16)))/1e3)
	x64 := batch(64)
	r.set("infer.forward_b64_us", timeOp(forward(x64))/1e3)
	r.set("infer.float_forward_b64_us", timeOp(func() {
		if _, err := s.float.Net.Forward(x64, false); err != nil && firstErr == nil {
			firstErr = err
		}
	})/1e3)
	if firstErr != nil {
		return firstErr
	}
	r.set("infer.allocs_per_forward", allocsPerRun(20, forward(x64)))

	var best *infer.ForwardProfile
	for i := 0; i < 12; i++ {
		_, p, err := s.eng.ForwardProfile(x64)
		if err != nil {
			return err
		}
		if best == nil || p.Total < best.Total {
			best = p
		}
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(best.Total) }
	r.set("infer.im2col_share", share(best.Im2col))
	r.set("infer.gemm_share", share(best.GEMM))
	r.set("infer.requant_share", share(best.Requant))
	r.set("infer.other_share", share(best.Other))
	r.set("infer.size_bytes", float64(s.eng.SizeBytes()))
	implicit := 0
	for _, l := range s.eng.ConvLowerings() {
		if l.Mode == "implicit" {
			implicit++
		}
	}
	r.set("infer.implicit_layers", float64(implicit))

	return nil
}

// ---------------------------------------------------------------------
// kernels: tensor and quant rows, timed standalone at shapes lifted from
// the workloads. conv3 is SmallCNN's third conv at batch 64: 16→32
// channels, 3×3, on 8×8 maps — the largest GEMM of a train_smallcnn step
// and of a batch-64 int8 forward.

func kernelRows(r *run) error {
	const (
		n    = 64
		inC  = 16
		outC = 32
		hw   = 8
		kdim = inC * 9
		pos  = n * hw * hw // GEMM columns (float) / rows (int8)
	)
	g := tensor.ConvGeom{InC: inC, InH: hw, InW: hw, KH: 3, KW: 3, Stride: 1, Pad: 1}
	rng := tensor.NewRNG(r.opts.seed ^ 0xBE7C)
	rnd := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		t.FillNormal(rng, 0, 1)
		return t
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	gflops := func(m, k, cols int, ns float64) float64 { return 2 * float64(m) * float64(k) * float64(cols) / ns }

	// Float GEMMs.
	w2d, cols, prod := rnd(outC, kdim), rnd(kdim, pos), tensor.New(outC, pos)
	r.set("tensor.gemm_f32_wide_gflops", gflops(outC, kdim, pos,
		timeOp(func() { note(tensor.MatMulInto(prod, w2d, cols)) })))
	nw, ncols, nprod := rnd(4, 36), rnd(36, n*256), tensor.New(4, n*256)
	r.set("tensor.gemm_f32_narrow_gflops", gflops(4, 36, n*256,
		timeOp(func() { note(tensor.MatMulInto(nprod, nw, ncols)) })))
	d2d, dcols := rnd(outC, pos), tensor.New(kdim, pos)
	r.set("tensor.gemm_f32_transa_gflops", gflops(kdim, outC, pos,
		timeOp(func() { note(tensor.MatMulTransAInto(dcols, w2d, d2d)) })))
	dw := tensor.New(outC, kdim)
	r.set("tensor.gemm_f32_transb_gflops", gflops(outC, pos, kdim,
		timeOp(func() { note(tensor.MatMulTransBInto(dw, d2d, cols)) })))

	// im2col / col2im: bytes moved are computed from the tensor sizes.
	x, dx := rnd(n, inC, hw, hw), tensor.New(n, inC, hw, hw)
	moved := 4 * float64(x.Len()+cols.Len())
	r.set("tensor.im2col_f32_gbps", moved/timeOp(func() { note(tensor.Im2ColBatchInto(cols, x, g)) }))
	r.set("tensor.col2im_f32_gbps", moved/timeOp(func() { note(tensor.Col2ImBatchInto(dx, dcols, g)) }))

	// Integer path: packed GEMM, implicit conv, requantization.
	wt := make([]int8, outC*kdim)
	for i := range wt {
		wt[i] = int8(rng.Intn(255) - 127)
	}
	packed, err := tensor.PackI8PanelsBT(wt, kdim, outC)
	if err != nil {
		return err
	}
	a := make([]uint8, pos*kdim+3)
	src := make([]uint8, n*inC*hw*hw)
	for i := range a {
		a[i] = uint8(rng.Intn(256))
	}
	for i := range src {
		src[i] = uint8(rng.Intn(256))
	}
	acc := make([]int32, pos*outC)
	gops := 2 * float64(pos) * float64(kdim) * float64(outC)
	r.set("tensor.gemm_u8i8_gops", gops/timeOp(func() { note(tensor.MatMulU8I8PackedInto(acc, a, packed, pos, kdim)) }))
	plan, err := tensor.NewConvPlanU8(g)
	if err != nil {
		return err
	}
	work := make([]uint8, min(tensor.MaxWorkers(), n*plan.Bands())*plan.BandLen())
	r.set("tensor.conv_implicit_gops", gops/timeOp(func() {
		note(tensor.ConvU8I8ImplicitInto(acc, src, n, packed, plan, 128, work))
	}))
	m0, rsh, corr := make([]int32, outC), make([]int32, outC), make([]int64, outC)
	for c := range m0 {
		m0[c], rsh[c] = 1<<30+int32(c)<<16, 40
	}
	dst := make([]uint8, outC*pos)
	r.set("tensor.requant_gelems", float64(pos*outC)/timeOp(func() {
		tensor.RequantQ31Transpose(dst, acc, m0, rsh, corr, 128, 0, pos, outC, outC, pos)
	}))
	r.set("tensor.parallel_for_us", timeOp(func() { tensor.ParallelFor(pinnedProcs, func(int) {}) })/1e3)
	simd := 0.0
	if tensor.SIMDActive() {
		simd = 1
	}
	r.set("tensor.simd", simd)

	// quant: snap, pack and unpack a SmallCNN-sized weight tensor.
	const elems = 16384
	wq := rnd(elems)
	st := quant.State{Bits: 8}
	r.set("quant.snap_ns_per_elem", timeOp(func() { st.Refresh(wq); st.SnapInPlace(wq) })/elems)
	var pk *quant.Packed
	r.set("quant.pack_ns_per_elem", timeOp(func() { pk, err = quant.Pack(wq, &st); note(err) })/elems)
	r.set("quant.unpack_ns_per_elem", timeOp(func() { _, err := pk.Unpack(elems); note(err) })/elems)
	return firstErr
}

// ---------------------------------------------------------------------
// small helpers

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// timeOp returns the median nanoseconds per call of f over five chunks of
// about 25 ms each, after one warm-up call.
func timeOp(f func()) float64 {
	f()
	t0 := time.Now()
	f()
	per := time.Since(t0)
	iters := int(25*time.Millisecond/(per+1)) + 1
	chunks := make([]float64, 5)
	for c := range chunks {
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		chunks[c] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(chunks)
}

// allocsPerRun is testing.AllocsPerRun without the testing package.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}
