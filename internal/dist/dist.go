// Package dist trains data-parallel through a parameter server with
// compressed links — the deployment setting TernGrad (one of Table I's
// comparison methods) was designed for, and the one APT's own precision
// state makes cheaper on the wire. Workers each own a full model replica
// on a goroutine of their own, compute gradients on disjoint mini-batch
// shards, and push them through a GradCodec (fp32, k-bit affine, or
// ternary); the server averages the decoded gradients, applies the SGD
// step, and broadcasts weights back through the nn.SyncParams path, so
// every replica stays bit-identical to the server.
//
// When the server runs an APT controller (Config.APT), the downlink can be
// bitwidth-aware (Config.QuantBroadcast): each layer's weights ship
// bit-packed at the layer's current APT bitwidth instead of fp32, so the
// broadcast traffic shrinks as APT keeps layers at low precision — the
// scenario the paper motivates for resource-constrained deployments.
//
// Membership runs in one of two modes. The strict barrier (the default)
// is the deterministic reference: every round waits for every shard and
// folds them in worker order, so a run is bit-reproducible for a fixed
// seed at any worker count, and a worker failure aborts it. Elastic
// membership (Config.HeartbeatTimeout > 0) is the production policy:
// workers that stall past the timeout are expelled from the gradient
// barrier (the round's average re-weights over the live contributors),
// optionally respawned from the server's replica state, and late
// gradients fold in under a bounded-staleness policy or are dropped and
// counted (Config.MinShards, Config.MaxStaleness, Config.MaxRespawns).
// Runs checkpoint their complete state periodically
// (Config.CheckpointPath) and resume from it (Config.Resume) — under the
// strict barrier bit-identically — and publish crash-consistent serving
// checkpoints (Config.PublishPath) a serving process can watch.
package dist

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// GradCodec compresses one worker→server gradient push. Encode replaces
// g's contents with the values the server decodes (simulating the lossy
// wire format) and returns the number of bytes the push costs. Codecs run
// in the server's ingest path, in worker order, so stateful codecs (the
// ternary sampler) stay deterministic under the strict barrier.
type GradCodec interface {
	Name() string
	Encode(g *tensor.Tensor) int64
}

// FP32Codec transmits gradients uncompressed.
type FP32Codec struct{}

// Name implements GradCodec.
func (FP32Codec) Name() string { return "fp32" }

// Encode implements GradCodec: identity, 4 bytes per element.
func (FP32Codec) Encode(g *tensor.Tensor) int64 { return int64(g.Len()) * 4 }

// KBitCodec quantizes each gradient tensor onto a k-bit affine grid over
// its live range (DoReFa-style gradient quantization). Re-encoding a
// tensor that is already snapped onto its grid is lossless.
type KBitCodec struct {
	Bits int
}

// Name implements GradCodec.
func (c KBitCodec) Name() string { return fmt.Sprintf("%d-bit", c.Bits) }

// Encode implements GradCodec.
func (c KBitCodec) Encode(g *tensor.Tensor) int64 {
	st := quant.State{Bits: c.Bits}
	st.Refresh(g)
	st.SnapInPlace(g)
	// Payload: packed k-bit codes plus the fp32 range pair.
	return (int64(g.Len())*int64(c.Bits)+7)/8 + 8
}

// TernaryCodec implements TernGrad's stochastic ternarization
// (quant.Ternarize) on the uplink.
type TernaryCodec struct {
	rng *tensor.RNG
}

// NewTernaryCodec seeds the codec's Bernoulli sampling.
func NewTernaryCodec(seed uint64) *TernaryCodec {
	return &TernaryCodec{rng: tensor.NewRNG(seed)}
}

// Name implements GradCodec.
func (*TernaryCodec) Name() string { return "ternary" }

// Encode implements GradCodec.
func (t *TernaryCodec) Encode(g *tensor.Tensor) int64 {
	quant.Ternarize(g, t.rng)
	// Payload: 2 bits per element plus the fp32 scale.
	return (int64(g.Len())*2+7)/8 + 4
}

// statefulCodec is implemented by codecs whose encoding draws randomness.
// Their RNG cursor must travel with training checkpoints, or a resumed
// run would re-draw the Bernoulli samples differently and diverge from
// the uninterrupted trajectory.
type statefulCodec interface {
	RNGState() uint64
	SetRNGState(uint64)
}

// RNGState exposes the codec's sampling cursor for checkpointing.
func (t *TernaryCodec) RNGState() uint64 { return t.rng.State() }

// SetRNGState restores a sampling cursor captured by RNGState.
func (t *TernaryCodec) SetRNGState(s uint64) { t.rng.SetState(s) }

// Config assembles one data-parallel run.
type Config struct {
	Workers   int
	Build     func() (*models.Model, error)
	Train     data.Dataset
	Test      data.Dataset
	BatchSize int // per-worker shard size
	Epochs    int
	LR        float64
	Momentum  float64
	Codec     GradCodec
	Seed      uint64

	// Deprecated: Concurrent is ignored; every run uses the one
	// goroutine-per-worker engine. The field is deleted once the
	// benchmark module stops setting it.
	Concurrent bool

	// APT, when non-nil, runs a precision controller on the server: it
	// observes the averaged gradients each round and adjusts per-layer
	// bitwidths at epoch boundaries.
	APT *core.Config

	// QuantBroadcast ships weights bit-packed at each layer's current APT
	// bitwidth instead of fp32 (requires APT). The packed wire format is
	// authoritative: the server snaps its own weights onto the broadcast
	// grid so server and replicas stay bit-identical.
	QuantBroadcast bool

	// --- Elastic membership ---

	// HeartbeatTimeout enables elastic membership: a worker that holds a
	// shard longer than this is declared dead, expelled from the gradient
	// barrier, and (budget permitting) respawned. Zero keeps the strict
	// barrier — the server waits for every dispatched shard, and a run is
	// bit-reproducible for a fixed seed.
	HeartbeatTimeout time.Duration
	// MinShards lets the server step with K-of-N gradients: once the
	// heartbeat grace period expires, a round with at least MinShards
	// contributions steps without waiting for stragglers. Zero means all
	// dispatched shards are required (deaths still shrink the barrier).
	MinShards int
	// MaxStaleness bounds how old a straggler's gradient may be and still
	// fold into the current round's average (in rounds). Zero drops every
	// late gradient; the drop is counted in Stats.StaleDropped.
	MaxStaleness int
	// MaxRespawns bounds how many replacement workers the run may spawn.
	// A respawn clones the server's replica state and re-runs the dead
	// worker's shard. Past the budget, a death permanently shrinks the
	// worker pool.
	MaxRespawns int
	// Fault injects scripted worker failures for the chaos tests.
	Fault *FaultPlan

	// --- Checkpoint / resume / publish ---

	// CheckpointPath, when set, enables TrainState snapshots: a complete,
	// resumable image of the run written atomically (temp file + rename,
	// version/CRC trailer). CheckpointEvery is the cadence in server
	// rounds; with cadence 0 a checkpoint is still written at halt and at
	// the end of the run.
	CheckpointPath  string
	CheckpointEvery int
	// PublishPath, when set, periodically publishes a bit-packed serving
	// checkpoint (models.SaveFileAtomic) every PublishEvery rounds, and
	// once more at the end of the run — the file a serving process watches
	// and hot-reloads. Versions increase monotonically across resumes.
	PublishPath  string
	PublishEvery int
	// HaltAfterRounds stops the run cleanly once this many total rounds
	// have stepped, writing a final checkpoint — a deterministic stand-in
	// for a process kill in resume tests and CI.
	HaltAfterRounds int
	// Resume restarts the run from a TrainState snapshot instead of from
	// scratch. The configuration must match the checkpointed run (same
	// architecture, seed, batch size, worker count); in strict-barrier
	// mode the resumed trajectory is bit-identical to the uninterrupted
	// one.
	Resume *models.TrainState
	// CheckpointRNGs are auxiliary RNG streams (data augmentation, for
	// example) whose cursors must travel with checkpoints. Captured and
	// restored in slice order; the codec's own stream, if any, is handled
	// automatically.
	CheckpointRNGs []*tensor.RNG
}

// Stats records the outcome of a run.
type Stats struct {
	// UpBytes is the total worker→server gradient traffic.
	UpBytes int64
	// DownBytes is the total server→worker weight broadcast traffic
	// (fp32, or bit-packed when QuantBroadcast is set).
	DownBytes int64
	// Rounds is the number of parameter-server update rounds.
	Rounds int
	// Accs is the test accuracy after each epoch.
	Accs []float64
	// MeanBits is the final parameter-weighted mean bitwidth of the
	// server model (32 without APT).
	MeanBits float64
	// Final is the final state of the evaluation model (worker 0's
	// replica under the strict barrier, any parked live one under elastic
	// membership), for checkpointing and equivalence tests.
	Final *nn.NetState

	// --- Elastic membership accounting ---

	// WorkersLost counts workers declared dead after missing a heartbeat.
	WorkersLost int
	// Respawns counts replacement workers spawned for dead ones.
	Respawns int
	// Rejoins counts declared-dead workers that delivered after all and
	// re-entered the membership (possible only when not yet replaced).
	Rejoins int
	// WorkerErrors counts worker step failures (recovered panics)
	// tolerated under elastic membership.
	WorkerErrors int
	// StaleFolded counts late gradients folded into a newer round under
	// the MaxStaleness bound; StaleDropped counts late gradients
	// discarded (too old, or from a replaced worker).
	StaleFolded  int
	StaleDropped int
	// PartialRounds counts rounds that stepped with fewer gradients than
	// were dispatched; SkippedRounds counts rounds abandoned with no
	// usable gradient at all.
	PartialRounds int
	SkippedRounds int

	// --- Checkpoint / publish accounting ---

	// Checkpoints counts TrainState snapshots written this run (not
	// carried across resumes). Publishes is the version of the last
	// published serving checkpoint (monotonic across resumes).
	Checkpoints int
	Publishes   uint64
	// Halted reports the run stopped at HaltAfterRounds rather than
	// completing its epoch budget.
	Halted bool
}

// FinalAcc returns the last epoch's test accuracy (0 for an empty run).
func (s *Stats) FinalAcc() float64 {
	if len(s.Accs) == 0 {
		return 0
	}
	return s.Accs[len(s.Accs)-1]
}

// engine is one parameter-server run. The server side owns the canonical
// model replica, the optimizer, the codec, the (optional) APT precision
// controller and the loader; the worker side is one membership slot per
// worker. The engine's fields are touched only by the goroutine that
// called Run; concurrent.go spells out the synchronization model.
type engine struct {
	cfg        Config
	m          *models.Model
	params     []*nn.Param
	opt        *optim.SGD
	ctrl       *core.Controller
	codec      GradCodec
	loader     *data.Loader
	sum        []*tensor.Tensor // per-parameter gradient accumulator
	packs      []quant.Packed   // per-parameter broadcast payload, reused every round
	st         *Stats
	startEpoch int // epoch to run first: 0, or the resumed checkpoint's

	slots    []*slot
	results  chan result
	quit     chan struct{}
	strict   bool
	roundSeq int
	respawns int
	// per-round collect state
	got     int // gradients ingested this round (fresh + folded stale)
	pending int // current-round shards still outstanding
}

// Run executes the data-parallel training loop.
func Run(cfg Config) (*Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer close(e.quit)
	if err := e.start(); err != nil {
		return nil, err
	}
	return e.run()
}

func (c *Config) validate() error {
	if c.Workers <= 0 || c.Build == nil || c.Train == nil || c.Test == nil {
		return fmt.Errorf("dist: workers, build and datasets are required")
	}
	if c.BatchSize <= 0 || c.Epochs <= 0 {
		return fmt.Errorf("dist: batch size %d and epochs %d must be positive", c.BatchSize, c.Epochs)
	}
	if c.QuantBroadcast && c.APT == nil {
		return fmt.Errorf("dist: QuantBroadcast requires an APT controller config")
	}
	if c.HeartbeatTimeout == 0 && (c.MinShards != 0 || c.MaxStaleness != 0 || c.MaxRespawns != 0) {
		return fmt.Errorf("dist: MinShards, MaxStaleness and MaxRespawns require HeartbeatTimeout > 0")
	}
	if c.MinShards < 0 || c.MinShards > c.Workers {
		return fmt.Errorf("dist: MinShards %d outside [0, %d workers]", c.MinShards, c.Workers)
	}
	if c.MaxStaleness < 0 || c.MaxRespawns < 0 || c.CheckpointEvery < 0 || c.PublishEvery < 0 || c.HaltAfterRounds < 0 {
		return fmt.Errorf("dist: negative cadence or budget")
	}
	if c.CheckpointEvery > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("dist: CheckpointEvery requires CheckpointPath")
	}
	if c.PublishEvery > 0 && c.PublishPath == "" {
		return fmt.Errorf("dist: PublishEvery requires PublishPath")
	}
	if c.Codec == nil {
		c.Codec = FP32Codec{}
	}
	return nil
}

// newEngine builds the server side of a run — model, optimizer,
// controller, codec and loader — and, with cfg.Resume set, imports the
// checkpoint into it. It starts no goroutine (start spawns the workers).
func newEngine(cfg Config) (*engine, error) {
	m, err := cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("dist: build: %w", err)
	}
	e := &engine{
		cfg:    cfg,
		m:      m,
		params: m.Params(),
		opt:    optim.NewSGD(cfg.LR, cfg.Momentum, 0),
		codec:  cfg.Codec,
		st:     &Stats{},
		// Buffered past the largest possible sender population so
		// deliveries from replaced replicas never contend.
		results: make(chan result, cfg.Workers+cfg.MaxRespawns+4),
		quit:    make(chan struct{}),
		strict:  cfg.HeartbeatTimeout <= 0,
	}
	if cfg.APT != nil {
		if e.ctrl, err = core.NewController(*cfg.APT, e.params); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
	}
	e.sum = make([]*tensor.Tensor, len(e.params))
	e.packs = make([]quant.Packed, len(e.params))
	for i, p := range e.params {
		e.sum[i] = tensor.New(p.Value.Shape()...)
	}
	rng := tensor.NewRNG(cfg.Seed ^ 0xD157)
	if e.loader, err = data.NewLoader(cfg.Train, cfg.BatchSize, rng.Split()); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if cfg.Resume != nil {
		if e.startEpoch, err = e.restore(cfg.Resume); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// start builds one full replica per worker, aligned bit for bit with the
// server (weights, quant grids, masters and batch-norm statistics), and
// spawns its goroutine. This initial ship is uncharged: in a deployment
// the initial weights travel with the job submission, not over the
// training-round links.
func (e *engine) start() error {
	snap := nn.CaptureState(e.m.Layers())
	e.slots = make([]*slot, e.cfg.Workers)
	for w := range e.slots {
		r, err := e.spawn(w, snap)
		if err != nil {
			return err
		}
		e.slots[w] = &slot{r: r, alive: true}
	}
	// On resume, replicas recover their worker-local batch-norm history
	// where the checkpoint captured it (a nil entry means that worker was
	// mid-shard at checkpoint time; its replacement keeps the server
	// clone).
	if rs := e.cfg.Resume; rs != nil && len(rs.Replicas) == len(e.slots) {
		for w, ns := range rs.Replicas {
			if ns == nil {
				continue
			}
			if err := nn.RestoreState(e.slots[w].r.m.Layers(), ns); err != nil {
				return fmt.Errorf("dist: resume worker %d: %w", w, err)
			}
		}
	}
	return nil
}

// spawn builds a fresh replica for a slot from a server-state snapshot
// and starts its goroutine.
func (e *engine) spawn(id int, snap *nn.NetState) (*replica, error) {
	m, err := e.cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("dist: build worker %d: %w", id, err)
	}
	if err := nn.RestoreState(m.Layers(), snap); err != nil {
		return nil, fmt.Errorf("dist: worker %d: %w", id, err)
	}
	r := &replica{
		id:     id,
		m:      m,
		params: m.Params(),
		// One-deep so dispatch to a parked worker never blocks the server.
		jobs: make(chan job, 1),
	}
	r.stage = make([]*tensor.Tensor, len(r.params))
	for i, p := range r.params {
		r.stage[i] = tensor.New(p.Value.Shape()...)
	}
	r.beat.Store(time.Now().UnixNano())
	go r.loop(e.quit, e.results, e.cfg.Fault)
	return r, nil
}
