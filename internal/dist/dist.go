// Package dist trains data-parallel through a parameter server with
// compressed links — the deployment setting TernGrad (one of Table I's
// comparison methods) was designed for, and the one APT's own precision
// state makes cheaper on the wire. Workers each own a full model replica,
// compute gradients on disjoint mini-batch shards, push them through a
// GradCodec (fp32, k-bit affine, or ternary), and the server averages the
// decoded gradients, applies the SGD step, and broadcasts weights back.
//
// Two engines share one server core (so they execute the same
// floating-point operations in the same order):
//
//   - the sequential reference (Config.Concurrent = false) runs the
//     workers one after another on a single shared replica — weights are
//     identical across replicas between rounds, so the computed gradients
//     match a true multi-process run exactly;
//   - the concurrent engine (Config.Concurrent = true) runs one goroutine
//     per worker, each owning a private replica kept bit-identical to the
//     server through the nn.SyncParams broadcast path. At Workers = 1 its
//     trajectory is bit-identical to the sequential reference; at any
//     worker count it is deterministic for a fixed seed.
//
// When the server runs an APT controller (Config.APT), the downlink can be
// bitwidth-aware (Config.QuantBroadcast): each layer's weights ship
// bit-packed at the layer's current APT bitwidth instead of fp32, so the
// broadcast traffic shrinks as APT keeps layers at low precision — the
// scenario the paper motivates for resource-constrained deployments.
//
// The concurrent engine additionally survives worker failure: with
// Config.HeartbeatTimeout set, workers that stall past the timeout are
// expelled from the gradient barrier (the round's average re-weights over
// the live contributors), optionally respawned from the server's replica
// state, and late gradients fold in under a bounded-staleness policy or
// are dropped and counted (Config.MinShards, Config.MaxStaleness,
// Config.MaxRespawns). Runs checkpoint their complete state periodically
// (Config.CheckpointPath) and resume from it (Config.Resume) — in
// strict-barrier mode bit-identically — and publish crash-consistent
// serving checkpoints (Config.PublishPath) a serving process can watch.
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
	"repro/internal/train"
)

// GradCodec compresses one worker→server gradient push. Encode replaces
// g's contents with the values the server decodes (simulating the lossy
// wire format) and returns the number of bytes the push costs. Codecs run
// in the server's ingest path, in worker order, so stateful codecs (the
// ternary sampler) stay deterministic under the concurrent engine.
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

	// Concurrent selects the goroutine-per-worker engine; false runs the
	// sequential reference implementation on one shared replica.
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

	// --- Elastic membership (concurrent engine only) ---

	// HeartbeatTimeout enables elastic membership: a worker that holds a
	// shard longer than this is declared dead, expelled from the gradient
	// barrier, and (budget permitting) respawned. Zero keeps the strict
	// barrier — the server waits for every dispatched shard, and healthy
	// runs stay bit-identical to the sequential reference.
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
	// Final is the final state of the evaluation model (the shared
	// replica for the sequential engine, worker 0's replica for the
	// concurrent one), for checkpointing and equivalence tests.
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

// server owns the canonical model replica, the optimizer, the codec and
// (optionally) the APT precision controller. Both engines drive rounds
// through it, which is what makes the Workers=1 trajectories bit-identical
// across engines: the per-round arithmetic and its order live here once.
type server struct {
	cfg    Config
	m      *models.Model
	params []*nn.Param
	opt    *optim.SGD
	ctrl   *core.Controller
	codec  GradCodec
	sum    []*tensor.Tensor // per-parameter gradient accumulator
	packs  []quant.Packed   // per-parameter broadcast payload, reused every round
	st     *Stats
}

func newServer(cfg Config) (*server, error) {
	m, err := cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("dist: build: %w", err)
	}
	s := &server{
		cfg:    cfg,
		m:      m,
		params: m.Params(),
		opt:    optim.NewSGD(cfg.LR, cfg.Momentum, 0),
		codec:  cfg.Codec,
		st:     &Stats{},
	}
	if cfg.APT != nil {
		ctrl, err := core.NewController(*cfg.APT, s.params)
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		s.ctrl = ctrl
	}
	s.sum = make([]*tensor.Tensor, len(s.params))
	s.packs = make([]quant.Packed, len(s.params))
	for i, p := range s.params {
		s.sum[i] = tensor.New(p.Value.Shape()...)
	}
	return s, nil
}

// beginRound zeroes the gradient accumulator.
func (s *server) beginRound() {
	for _, t := range s.sum {
		t.Zero()
	}
}

// ingest models one worker→server push: the staged gradients pass through
// the codec (which rewrites them to the decoded wire values and prices the
// uplink) and accumulate into the round sum.
func (s *server) ingest(stage []*tensor.Tensor) error {
	for i := range s.params {
		s.st.UpBytes += s.codec.Encode(stage[i])
		if err := s.sum[i].Add(stage[i]); err != nil {
			return fmt.Errorf("dist: %s: %w", s.params[i].Name, err)
		}
	}
	return nil
}

// finishRound averages the decoded gradients, lets the APT controller
// observe them, applies the SGD step, and charges the downlink for shards
// weight pulls.
func (s *server) finishRound(shards int) error {
	inv := 1 / float32(shards)
	for i, p := range s.params {
		s.sum[i].Scale(inv)
		if err := p.Grad.CopyFrom(s.sum[i]); err != nil {
			return fmt.Errorf("dist: %s: %w", p.Name, err)
		}
	}
	if s.ctrl != nil {
		s.ctrl.ObserveBatch()
	}
	if err := s.opt.Step(s.params); err != nil {
		return fmt.Errorf("dist: step: %w", err)
	}
	per, err := s.broadcastBytes()
	if err != nil {
		return err
	}
	s.st.DownBytes += per * int64(shards)
	s.st.Rounds++
	return nil
}

// broadcastBytes prices one worker's weight pull. fp32 mode ships every
// tensor raw. Quantized mode ships each quantized tensor bit-packed at its
// current bitwidth (payload plus an 8-byte grid header); the pack→unpack
// round trip is applied to the server's own weights too, so the wire
// format is authoritative and server and replicas cannot drift. The
// payloads are reused round to round and decode in place, so a round's
// broadcast allocates nothing.
func (s *server) broadcastBytes() (int64, error) {
	var bytes int64
	for i, p := range s.params {
		if s.cfg.QuantBroadcast && p.Q != nil && !p.Q.FullPrecision() && p.Q.Eps > 0 {
			packed := &s.packs[i]
			if err := quant.PackInto(packed, p.Value, p.Q); err != nil {
				return 0, fmt.Errorf("dist: broadcast %s: %w", p.Name, err)
			}
			if err := packed.UnpackInto(p.Value.Data()); err != nil {
				return 0, fmt.Errorf("dist: broadcast %s: %w", p.Name, err)
			}
			bytes += int64(packed.SizeBytes()) + 8
		} else {
			bytes += int64(p.Value.Len()) * 4
		}
	}
	return bytes, nil
}

// finishEpoch runs the epoch-boundary APT precision adjustment (a
// server-side requantization of the canonical weights).
func (s *server) finishEpoch() error {
	if s.ctrl == nil {
		return nil
	}
	if _, err := s.ctrl.AdjustEpoch(); err != nil {
		return fmt.Errorf("dist: adjust: %w", err)
	}
	return nil
}

func (s *server) finalize(evalModel *models.Model) {
	s.st.MeanBits = meanBits(s.params)
	s.st.Final = nn.CaptureState(evalModel.Layers())
}

// rngStates collects the auxiliary RNG cursors that travel with a
// checkpoint: the caller-registered streams in order, then the codec's
// sampling stream if it has one. restoreRNGs is the exact inverse.
func (s *server) rngStates() []uint64 {
	var out []uint64
	for _, r := range s.cfg.CheckpointRNGs {
		out = append(out, r.State())
	}
	if sc, ok := s.codec.(statefulCodec); ok {
		out = append(out, sc.RNGState())
	}
	return out
}

func (s *server) restoreRNGs(states []uint64) error {
	want := len(s.cfg.CheckpointRNGs)
	sc, stateful := s.codec.(statefulCodec)
	if stateful {
		want++
	}
	if len(states) != want {
		return fmt.Errorf("dist: resume: checkpoint has %d RNG streams, run has %d", len(states), want)
	}
	for i, r := range s.cfg.CheckpointRNGs {
		r.SetState(states[i])
	}
	if stateful {
		sc.SetRNGState(states[len(states)-1])
	}
	return nil
}

// captureTrainState assembles a complete resumable snapshot: the server
// replica, optimizer and controller state, the loader's batch cursor,
// auxiliary RNG cursors, and the run's cumulative accounting. epoch is
// the epoch in progress (epoch+1 at an epoch boundary — the loader has
// already drawn the next epoch's order by then); replicas carries
// per-worker state from the concurrent engine, nil otherwise.
func (s *server) captureTrainState(epoch int, loader *data.Loader, replicas []*nn.NetState) *models.TrainState {
	st := &models.TrainState{
		Arch:      s.m.Name,
		Width:     s.m.Width,
		Seed:      s.cfg.Seed,
		Epoch:     epoch,
		Loader:    loader.Cursor(),
		Net:       nn.CaptureState(s.m.Layers()),
		Replicas:  replicas,
		Opt:       s.opt.CaptureState(s.params),
		RNGs:      s.rngStates(),
		Rounds:    s.st.Rounds,
		UpBytes:   s.st.UpBytes,
		DownBytes: s.st.DownBytes,
		Accs:      append([]float64(nil), s.st.Accs...),
		Publishes: s.st.Publishes,
	}
	if s.ctrl != nil {
		st.Ctrl = s.ctrl.CaptureState()
	}
	return st
}

// checkpoint writes a TrainState snapshot to cfg.CheckpointPath.
func (s *server) checkpoint(epoch int, loader *data.Loader, replicas []*nn.NetState) error {
	st := s.captureTrainState(epoch, loader, replicas)
	if err := models.SaveTrainState(s.cfg.CheckpointPath, st); err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	s.st.Checkpoints++
	return nil
}

// shouldCheckpoint reports whether the periodic cadence lands on the
// current round. (Halt and end-of-run checkpoints bypass the cadence.)
func (s *server) shouldCheckpoint() bool {
	return s.cfg.CheckpointPath != "" && s.cfg.CheckpointEvery > 0 &&
		s.st.Rounds%s.cfg.CheckpointEvery == 0
}

func (s *server) timeToPublish() bool {
	return s.cfg.PublishPath != "" && s.cfg.PublishEvery > 0 &&
		s.st.Rounds%s.cfg.PublishEvery == 0
}

// publish writes m as a bit-packed serving checkpoint to cfg.PublishPath
// with the next monotonic version — atomically, so a serving process
// polling the path never observes a torn file.
func (s *server) publish(m *models.Model) error {
	v := s.st.Publishes + 1
	if err := models.SaveFileAtomic(s.cfg.PublishPath, m, v); err != nil {
		return fmt.Errorf("dist: publish: %w", err)
	}
	s.st.Publishes = v
	return nil
}

// restore imports a TrainState snapshot into a freshly built server and
// its loader, returning the epoch to continue from. Order matters:
// nn.RestoreState must run after the controller was constructed (the
// controller's constructor stamps InitBits onto every parameter; the
// snapshot's quant grids must win), and the controller and optimizer
// restore against the restored parameters.
func (s *server) restore(st *models.TrainState, loader *data.Loader) (int, error) {
	if st.Arch != s.m.Name {
		return 0, fmt.Errorf("dist: resume: checkpoint is for %q, run builds %q", st.Arch, s.m.Name)
	}
	if st.Width != s.m.Width {
		return 0, fmt.Errorf("dist: resume: checkpoint width %g, run width %g", st.Width, s.m.Width)
	}
	if st.Seed != s.cfg.Seed {
		return 0, fmt.Errorf("dist: resume: checkpoint seed %d, run seed %d", st.Seed, s.cfg.Seed)
	}
	if st.Net == nil || st.Opt == nil {
		return 0, fmt.Errorf("dist: resume: incomplete checkpoint")
	}
	if err := nn.RestoreState(s.m.Layers(), st.Net); err != nil {
		return 0, fmt.Errorf("dist: resume: %w", err)
	}
	switch {
	case s.ctrl != nil && st.Ctrl != nil:
		if err := s.ctrl.RestoreState(st.Ctrl); err != nil {
			return 0, fmt.Errorf("dist: resume: %w", err)
		}
	case s.ctrl != nil:
		return 0, fmt.Errorf("dist: resume: run has an APT controller, checkpoint has no controller state")
	case st.Ctrl != nil:
		return 0, fmt.Errorf("dist: resume: checkpoint has APT controller state, run has no controller")
	}
	if err := s.opt.RestoreState(s.params, st.Opt); err != nil {
		return 0, fmt.Errorf("dist: resume: %w", err)
	}
	if err := loader.Seek(st.Loader); err != nil {
		return 0, fmt.Errorf("dist: resume: %w", err)
	}
	if err := s.restoreRNGs(st.RNGs); err != nil {
		return 0, err
	}
	s.st.Rounds = st.Rounds
	s.st.UpBytes = st.UpBytes
	s.st.DownBytes = st.DownBytes
	s.st.Accs = append([]float64(nil), st.Accs...)
	s.st.Publishes = st.Publishes
	return st.Epoch, nil
}

func meanBits(params []*nn.Param) float64 {
	var bits, n float64
	for _, p := range params {
		w := float64(p.Value.Len())
		bits += w * float64(p.Bits())
		n += w
	}
	if n == 0 {
		return 0
	}
	return bits / n
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
	if !c.Concurrent && (c.HeartbeatTimeout != 0 || c.MinShards != 0 || c.MaxStaleness != 0 || c.MaxRespawns != 0 || c.Fault != nil) {
		return fmt.Errorf("dist: elastic membership and fault injection require the concurrent engine")
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

// Run executes the data-parallel training loop with the engine selected by
// cfg.Concurrent.
func Run(cfg Config) (*Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Concurrent {
		return runConcurrent(cfg)
	}
	return runSequential(cfg)
}

// runSequential is the reference implementation: the workers run one after
// another against a single shared model replica. Weights are identical
// across replicas between rounds, so the computed gradients match a true
// multi-process run exactly; batch-norm running statistics accumulate over
// every shard (the one observable difference from the concurrent engine at
// Workers > 1, where they are worker-local).
func runSequential(cfg Config) (*Stats, error) {
	srv, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed ^ 0xD157)
	loader, err := data.NewLoader(cfg.Train, cfg.BatchSize, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	startEpoch := 0
	if cfg.Resume != nil {
		if startEpoch, err = srv.restore(cfg.Resume, loader); err != nil {
			return nil, err
		}
	}
	loss := nn.SoftmaxCrossEntropy{}

	// Reusable staging tensors for the codec, allocated once.
	stage := make([]*tensor.Tensor, len(srv.params))
	for i, p := range srv.params {
		stage[i] = tensor.New(p.Value.Shape()...)
	}

	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		// The inner loop runs rounds until the loader signals end of epoch.
		// The signal can arrive mid-round (batch count not divisible by the
		// worker count); the partial round still trains, and the exhausted
		// flag ends the epoch afterwards.
		for exhausted := false; !exhausted; {
			// One round: up to cfg.Workers shards, one per worker.
			srv.beginRound()
			shards := 0
			for w := 0; w < cfg.Workers; w++ {
				batch, labels, ok := loader.Next()
				if !ok {
					exhausted = true
					break
				}
				logits, err := srv.m.Net.Forward(batch, true)
				if err != nil {
					return nil, fmt.Errorf("dist: epoch %d forward: %w", epoch, err)
				}
				_, dlogits, err := loss.Forward(logits, labels)
				if err != nil {
					return nil, fmt.Errorf("dist: epoch %d loss: %w", epoch, err)
				}
				if _, err := srv.m.Net.Backward(dlogits); err != nil {
					return nil, fmt.Errorf("dist: epoch %d backward: %w", epoch, err)
				}
				for i, p := range srv.params {
					if err := stage[i].CopyFrom(p.Grad); err != nil {
						return nil, fmt.Errorf("dist: %s: %w", p.Name, err)
					}
					p.ZeroGrad()
				}
				if err := srv.ingest(stage); err != nil {
					return nil, err
				}
				shards++
			}
			if shards == 0 {
				break // epoch exhausted
			}
			if err := srv.finishRound(shards); err != nil {
				return nil, err
			}
			if exhausted {
				// The loader already reshuffled for the next epoch;
				// a checkpoint here could not name this position.
				// The epoch-boundary checkpoint below covers it.
				continue
			}
			if srv.shouldCheckpoint() {
				if err := srv.checkpoint(epoch, loader, nil); err != nil {
					return nil, err
				}
			}
			if srv.timeToPublish() {
				if err := srv.publish(srv.m); err != nil {
					return nil, err
				}
			}
			if cfg.HaltAfterRounds > 0 && srv.st.Rounds >= cfg.HaltAfterRounds {
				if cfg.CheckpointPath != "" {
					if err := srv.checkpoint(epoch, loader, nil); err != nil {
						return nil, err
					}
				}
				srv.st.Halted = true
				srv.finalize(srv.m)
				return srv.st, nil
			}
		}
		if err := srv.finishEpoch(); err != nil {
			return nil, err
		}
		acc, err := train.Evaluate(srv.m, cfg.Test, cfg.BatchSize)
		if err != nil {
			return nil, fmt.Errorf("dist: epoch %d eval: %w", epoch, err)
		}
		srv.st.Accs = append(srv.st.Accs, acc)
		haltNow := cfg.HaltAfterRounds > 0 && srv.st.Rounds >= cfg.HaltAfterRounds
		if cfg.CheckpointPath != "" && (cfg.CheckpointEvery > 0 || haltNow) {
			if err := srv.checkpoint(epoch+1, loader, nil); err != nil {
				return nil, err
			}
		}
		if haltNow {
			srv.st.Halted = true
			srv.finalize(srv.m)
			return srv.st, nil
		}
	}
	if cfg.CheckpointPath != "" {
		if err := srv.checkpoint(cfg.Epochs, loader, nil); err != nil {
			return nil, err
		}
	}
	if cfg.PublishPath != "" {
		if err := srv.publish(srv.m); err != nil {
			return nil, err
		}
	}
	srv.finalize(srv.m)
	return srv.st, nil
}
