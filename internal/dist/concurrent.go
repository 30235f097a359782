package dist

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The engine: one goroutine per worker, each owning a full model replica,
// with the goroutine that called Run acting as the parameter server.
//
// Synchronization model (kept deliberately narrow so the whole engine is
// provably race-free and deterministic):
//
//   - A worker touches only its own replica, its own gradient staging
//     tensors, and the batch it was handed. It never reads server state.
//   - The server touches worker-owned state (staged gradients, replica
//     weights during a sync) only while the worker is parked between jobs.
//     The job dispatch and result delivery channels provide the
//     happens-before edges.
//   - Codec encoding, gradient averaging and weight syncs all run on the
//     server goroutine, so every floating-point reduction has a
//     scheduling-independent order under the strict barrier. Worker
//     forward and backward passes are the only concurrently-executing
//     compute, and each one is deterministic in isolation.
//
// Membership has two modes:
//
//   - Strict barrier (HeartbeatTimeout == 0): every round waits for every
//     dispatched shard and ingests them in slot order, which makes a run
//     at any worker count seed-deterministic (TestDistDigests pins the
//     trajectories). A worker error aborts the run.
//   - Elastic (HeartbeatTimeout > 0): a worker that holds a shard past
//     the timeout is declared dead and expelled from the barrier; the
//     round's average re-weights over the gradients that did arrive.
//     Dead workers are respawned from the server's replica state while
//     the MaxRespawns budget lasts (the lost shard is re-dispatched to
//     the replacement); past it, the pool shrinks. With MinShards set the
//     server steps on a K-of-N quorum once the grace period expires, and
//     stragglers' late gradients fold into the round in progress while no
//     more than MaxStaleness rounds old — older ones (and deliveries from
//     replaced workers) are dropped and counted. Gradients ingest in
//     arrival order, so elastic runs are not bit-reproducible; they trade
//     that for liveness under failure.
//
// Liveness under injected faults is structural: a hung worker sleeps in a
// select that also watches the engine's quit channel, every result send
// does the same, and the collect loop's heartbeat timer bounds every
// wait. No failure mode leaves the server blocked or a goroutine leaked
// past the run's end.
//
// Batch-norm running statistics are worker-local (as in a real data
// deployment); evaluation uses worker 0's replica under the strict
// barrier, and any parked live replica (freshly synced) in elastic mode.

// job is one shard assignment for a worker round.
type job struct {
	round  int // 1-based global dispatch round, for staleness accounting
	batch  *tensor.Tensor
	labels []int
}

// result is one worker's round outcome, delivered on the engine's shared
// results channel. The replica pointer identifies the sender generation:
// a delivery from a replaced replica no longer matches its slot.
type result struct {
	r     *replica
	round int
	err   error
}

// replica is one worker: a private model copy plus gradient staging.
type replica struct {
	id     int // membership slot
	m      *models.Model
	params []*nn.Param
	stage  []*tensor.Tensor
	jobs   chan job
	// beat is the worker's heartbeat: UnixNano of its last liveness
	// signal (job receipt, step completion). The server reads it to
	// decide whether a busy worker is merely slow or gone.
	beat atomic.Int64
}

// loop is the worker goroutine: take a job, run it, deliver the result.
// Every blocking point watches quit, so the engine's exit releases even a
// worker hung in an injected fault.
func (r *replica) loop(quit <-chan struct{}, results chan<- result, plan *FaultPlan) {
	loss := nn.SoftmaxCrossEntropy{}
	for {
		var jb job
		var ok bool
		select {
		case <-quit:
			return
		case jb, ok = <-r.jobs:
			if !ok {
				return
			}
		}
		r.beat.Store(time.Now().UnixNano())
		f := plan.take(r.id, jb.round)
		if f != nil && f.Kind == FaultHang {
			select {
			case <-quit:
				return
			case <-time.After(f.Delay):
			}
		}
		err := r.run(loss, jb, f)
		r.beat.Store(time.Now().UnixNano())
		select {
		case <-quit:
			return
		case results <- result{r: r, round: jb.round, err: err}:
		}
	}
}

// run executes one shard with panic isolation: a panic in the model code
// (or an injected fault) is recovered into an error, so one worker's
// crash cannot take down the training process.
func (r *replica) run(loss nn.SoftmaxCrossEntropy, jb job, f *Fault) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("dist: worker %d panic: %v", r.id, p)
		}
	}()
	if f != nil && f.Kind == FaultPanic {
		panic(fmt.Sprintf("injected fault (worker %d, round %d)", r.id, jb.round))
	}
	return r.step(loss, jb)
}

// step runs one forward/backward on the replica and stages the gradients
// for the server to ingest.
func (r *replica) step(loss nn.SoftmaxCrossEntropy, jb job) error {
	logits, err := r.m.Net.Forward(jb.batch, true)
	if err != nil {
		return fmt.Errorf("dist: worker %d forward: %w", r.id, err)
	}
	_, dlogits, err := loss.Forward(logits, jb.labels)
	if err != nil {
		return fmt.Errorf("dist: worker %d loss: %w", r.id, err)
	}
	if err := r.m.Net.BackwardParams(dlogits); err != nil {
		return fmt.Errorf("dist: worker %d backward: %w", r.id, err)
	}
	for i, p := range r.params {
		if err := r.stage[i].CopyFrom(p.Grad); err != nil {
			return fmt.Errorf("dist: worker %d %s: %w", r.id, p.Name, err)
		}
		p.ZeroGrad()
	}
	return nil
}

// slot is the server-side view of one membership slot: the replica
// currently occupying it plus its scheduling state. Slots are touched
// only by the server goroutine.
type slot struct {
	r        *replica
	alive    bool // member of the gradient barrier
	busy     bool // has an outstanding job
	round    int  // round of the outstanding job
	job      job  // the outstanding job, kept for re-dispatch on respawn
	needSync bool // must pull fresh weights before its next job
}

// run drives the epoch/round loop: rounds until the loader ends the epoch,
// then the epoch boundary, checkpointing and publishing on their cadences.
func (e *engine) run() (*Stats, error) {
	cfg := e.cfg
	for epoch := e.startEpoch; epoch < cfg.Epochs; epoch++ {
		// End of epoch can arrive mid-round (batch count not divisible by
		// the worker count); the partial round still trains, and the flag
		// ends the epoch afterwards.
		for exhausted := false; !exhausted; {
			stepped, ex, err := e.round()
			if err != nil {
				return nil, err
			}
			exhausted = ex
			if !stepped || exhausted {
				// An exhausted loader already reshuffled for the next
				// epoch; the epoch-boundary checkpoint below covers this
				// position.
				continue
			}
			if e.shouldCheckpoint() {
				if err := e.checkpoint(epoch); err != nil {
					return nil, err
				}
			}
			if e.timeToPublish() {
				if err := e.publish(); err != nil {
					return nil, err
				}
			}
			if e.halting() {
				if cfg.CheckpointPath != "" {
					if err := e.checkpoint(epoch); err != nil {
						return nil, err
					}
				}
				return e.finish(true)
			}
		}
		if err := e.finishEpoch(); err != nil {
			return nil, err
		}
		m, err := e.evalModel()
		if err != nil {
			return nil, err
		}
		acc, err := train.Evaluate(m, cfg.Test, cfg.BatchSize)
		if err != nil {
			return nil, fmt.Errorf("dist: epoch %d eval: %w", epoch, err)
		}
		e.st.Accs = append(e.st.Accs, acc)
		haltNow := e.halting()
		if cfg.CheckpointPath != "" && (cfg.CheckpointEvery > 0 || haltNow) {
			if err := e.checkpoint(epoch + 1); err != nil {
				return nil, err
			}
		}
		if haltNow {
			return e.finish(true)
		}
	}
	if cfg.CheckpointPath != "" {
		if err := e.checkpoint(cfg.Epochs); err != nil {
			return nil, err
		}
	}
	if cfg.PublishPath != "" {
		if err := e.publish(); err != nil {
			return nil, err
		}
	}
	return e.finish(false)
}

// halting reports whether the run has stepped its HaltAfterRounds budget.
func (e *engine) halting() bool {
	return e.cfg.HaltAfterRounds > 0 && e.st.Rounds >= e.cfg.HaltAfterRounds
}

// round runs one dispatch → collect → step → broadcast cycle. stepped
// reports whether the server applied an update; exhausted reports end of
// epoch.
func (e *engine) round() (stepped, exhausted bool, err error) {
	for _, t := range e.sum {
		t.Zero()
	}
	e.roundSeq++
	e.got, e.pending = 0, 0
	round := e.roundSeq
	dispatched := 0
	for {
		for _, s := range e.slots {
			if !s.alive || s.busy {
				continue
			}
			batch, labels, ok := e.loader.Next()
			if !ok {
				exhausted = true
				break
			}
			if err := e.dispatch(s, job{round: round, batch: batch, labels: labels}); err != nil {
				return false, false, err
			}
			dispatched++
			e.pending++
		}
		if dispatched > 0 || exhausted {
			break
		}
		// No live slot was free: every member is either dead or a busy
		// straggler. Wait for one event (a delivery or a heartbeat
		// expiry) and retry; with no live members at all the run is lost.
		if !e.anyAlive() {
			return false, false, fmt.Errorf("dist: all %d workers lost", len(e.slots))
		}
		if err := e.awaitOne(round); err != nil {
			return false, false, err
		}
	}
	if dispatched == 0 && e.got == 0 {
		return false, exhausted, nil
	}
	if e.strict {
		if err := e.collectStrict(dispatched); err != nil {
			return false, exhausted, err
		}
	} else {
		if err := e.collectElastic(round); err != nil {
			return false, exhausted, err
		}
	}
	if e.got == 0 {
		e.st.SkippedRounds++
		return false, exhausted, nil
	}
	if e.got < dispatched {
		e.st.PartialRounds++
	}
	if err := e.finishRound(e.got); err != nil {
		return false, exhausted, err
	}
	if err := e.distribute(); err != nil {
		return false, exhausted, err
	}
	return true, exhausted, nil
}

// dispatch hands a job to a parked live slot, syncing its replica first
// if it missed a broadcast.
func (e *engine) dispatch(s *slot, jb job) error {
	if s.needSync {
		if err := nn.SyncParams(s.r.params, e.params); err != nil {
			return fmt.Errorf("dist: worker %d: %w", s.r.id, err)
		}
		s.needSync = false
	}
	s.busy = true
	s.round = jb.round
	s.job = jb
	s.r.jobs <- jb
	return nil
}

// collectStrict is the strict barrier: wait for every dispatched shard,
// then ingest in slot order, so neither the sum's order nor the codec's
// draws depend on scheduling. A worker error aborts the run.
func (e *engine) collectStrict(dispatched int) error {
	var firstErr error
	for e.pending > 0 {
		res := <-e.results
		e.slots[res.r.id].busy = false
		e.pending--
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	// Under the strict barrier every slot is always alive, so the round
	// dispatched to slots 0..dispatched-1 in order.
	for w := 0; w < dispatched; w++ {
		if err := e.ingest(e.slots[w].r.stage); err != nil {
			return err
		}
		e.got++
	}
	return nil
}

// collectElastic gathers the round's gradients under elastic membership:
// results ingest as they arrive, the heartbeat timer expels workers that
// stall past the timeout (respawning them while the budget lasts), and
// once the grace period has expired a MinShards quorum lets the round
// step without its stragglers.
func (e *engine) collectElastic(round int) error {
	timer := time.NewTimer(e.cfg.HeartbeatTimeout)
	defer timer.Stop()
	for e.pending > 0 {
		select {
		case res := <-e.results:
			if err := e.handleResult(res, round); err != nil {
				return err
			}
		case <-timer.C:
			if err := e.reapDead(round); err != nil {
				return err
			}
			if e.cfg.MinShards > 0 && e.got >= e.cfg.MinShards {
				// Quorum reached and grace expired: step now. The
				// stragglers stay busy; their gradients arrive in a
				// later round as stale.
				return nil
			}
			timer.Reset(e.cfg.HeartbeatTimeout)
		}
	}
	return nil
}

// awaitOne blocks for a single membership event — used when a new round
// cannot dispatch because every live member is a busy straggler.
func (e *engine) awaitOne(round int) error {
	timer := time.NewTimer(e.cfg.HeartbeatTimeout)
	defer timer.Stop()
	select {
	case res := <-e.results:
		return e.handleResult(res, round)
	case <-timer.C:
		return e.reapDead(round)
	}
}

// handleResult folds one delivery into the round: a fresh gradient
// ingests directly, a stale one ingests under the MaxStaleness bound or
// is dropped and counted, a worker error marks the replica for resync. A
// delivery also revives a slot that was declared dead but not yet
// replaced — the worker was slow, not gone.
func (e *engine) handleResult(res result, round int) error {
	s := e.slots[res.r.id]
	if s.r != res.r {
		// A replaced replica's delivery: its slot moved on without it.
		e.st.StaleDropped++
		return nil
	}
	if !s.alive {
		s.alive = true
		e.st.Rejoins++
	}
	s.busy = false
	s.needSync = true
	if res.round == round {
		e.pending--
	}
	if res.err != nil {
		e.st.WorkerErrors++
		return nil
	}
	if res.round != round {
		if e.cfg.MaxStaleness <= 0 || round-res.round > e.cfg.MaxStaleness {
			e.st.StaleDropped++
			return nil
		}
		e.st.StaleFolded++
	}
	if err := e.ingest(res.r.stage); err != nil {
		return err
	}
	e.got++
	return nil
}

// reapDead expels busy workers whose heartbeat is older than the timeout
// and, while the respawn budget lasts, replaces them with a fresh clone
// of the server replica and re-dispatches the shard they were holding.
func (e *engine) reapDead(round int) error {
	now := time.Now().UnixNano()
	cut := e.cfg.HeartbeatTimeout.Nanoseconds()
	for _, s := range e.slots {
		if !s.alive || !s.busy || now-s.r.beat.Load() <= cut {
			continue
		}
		s.alive = false
		s.busy = false
		e.st.WorkersLost++
		if s.round == round {
			e.pending--
		}
		if e.respawns >= e.cfg.MaxRespawns {
			continue // budget exhausted: the pool shrinks
		}
		e.respawns++
		e.st.Respawns++
		r, err := e.spawn(s.r.id, nn.CaptureState(e.m.Layers()))
		if err != nil {
			return err
		}
		s.r = r
		s.alive = true
		s.needSync = false
		held := s.job
		if err := e.dispatch(s, held); err != nil {
			return err
		}
		if s.round == round {
			e.pending++
		}
	}
	return nil
}

func (e *engine) anyAlive() bool {
	for _, s := range e.slots {
		if s.alive {
			return true
		}
	}
	return false
}

// ingest models one worker→server push: the staged gradients pass through
// the codec (which rewrites them to the decoded wire values and prices the
// uplink) and accumulate into the round sum.
func (e *engine) ingest(stage []*tensor.Tensor) error {
	for i := range e.params {
		e.st.UpBytes += e.codec.Encode(stage[i])
		if err := e.sum[i].Add(stage[i]); err != nil {
			return fmt.Errorf("dist: %s: %w", e.params[i].Name, err)
		}
	}
	return nil
}

// finishRound averages the decoded gradients, lets the APT controller
// observe them, applies the SGD step, and charges the downlink for shards
// weight pulls.
func (e *engine) finishRound(shards int) error {
	inv := 1 / float32(shards)
	for i, p := range e.params {
		e.sum[i].Scale(inv)
		if err := p.Grad.CopyFrom(e.sum[i]); err != nil {
			return fmt.Errorf("dist: %s: %w", p.Name, err)
		}
	}
	if e.ctrl != nil {
		e.ctrl.ObserveBatch()
	}
	if err := e.opt.Step(e.params); err != nil {
		return fmt.Errorf("dist: step: %w", err)
	}
	per, err := e.broadcastBytes()
	if err != nil {
		return err
	}
	e.st.DownBytes += per * int64(shards)
	e.st.Rounds++
	return nil
}

// broadcastBytes prices one worker's weight pull. fp32 mode ships every
// tensor raw. Quantized mode ships each quantized tensor bit-packed at its
// current bitwidth (payload plus an 8-byte grid header); the pack→unpack
// round trip is applied to the server's own weights too, so the wire
// format is authoritative and server and replicas cannot drift. The
// payloads are reused round to round and decode in place, so a round's
// broadcast allocates nothing.
func (e *engine) broadcastBytes() (int64, error) {
	var bytes int64
	for i, p := range e.params {
		if e.cfg.QuantBroadcast && p.Q != nil && !p.Q.FullPrecision() && p.Q.Eps > 0 {
			packed := &e.packs[i]
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

// distribute pushes the server's fresh weights (and, in quantized mode,
// the grids they were packed on) to the replicas: in place for the strict
// barrier (all workers parked), deferred to each slot's next dispatch in
// elastic mode, since a straggler's replica may not be touched
// mid-flight. Only the pulls of the workers that trained are charged (in
// finishRound).
func (e *engine) distribute() error {
	if e.strict {
		for _, s := range e.slots {
			if err := nn.SyncParams(s.r.params, e.params); err != nil {
				return fmt.Errorf("dist: worker %d: %w", s.r.id, err)
			}
		}
		return nil
	}
	for _, s := range e.slots {
		s.needSync = true
	}
	return nil
}

// finishEpoch runs the epoch-boundary APT precision adjustment (a
// server-side requantization of the canonical weights) and realigns the
// replicas with it before evaluation and the next epoch. The realignment
// is uncharged: the server applies the adjustment, no worker asked for it.
func (e *engine) finishEpoch() error {
	if e.ctrl == nil {
		return nil
	}
	if _, err := e.ctrl.AdjustEpoch(); err != nil {
		return fmt.Errorf("dist: adjust: %w", err)
	}
	return e.distribute()
}

// evalModel picks the model to evaluate, publish and finalize on: worker
// 0's replica under the strict barrier (always parked between rounds), a
// freshly synced parked live replica in elastic mode, or — degraded, when
// every member is busy or dead — the server model itself (whose
// batch-norm statistics are the initial ones, as the server never runs a
// forward pass).
func (e *engine) evalModel() (*models.Model, error) {
	if e.strict {
		return e.slots[0].r.m, nil
	}
	for _, s := range e.slots {
		if !s.alive || s.busy {
			continue
		}
		if s.needSync {
			if err := nn.SyncParams(s.r.params, e.params); err != nil {
				return nil, fmt.Errorf("dist: worker %d: %w", s.r.id, err)
			}
			s.needSync = false
		}
		return s.r.m, nil
	}
	return e.m, nil
}

func (e *engine) finish(halted bool) (*Stats, error) {
	m, err := e.evalModel()
	if err != nil {
		return nil, err
	}
	e.st.Halted = halted
	e.st.MeanBits = meanBits(e.params)
	e.st.Final = nn.CaptureState(m.Layers())
	return e.st, nil
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

// shouldCheckpoint reports whether the periodic cadence lands on the
// current round. (Halt and end-of-run checkpoints bypass the cadence.)
func (e *engine) shouldCheckpoint() bool {
	return e.cfg.CheckpointPath != "" && e.cfg.CheckpointEvery > 0 &&
		e.st.Rounds%e.cfg.CheckpointEvery == 0
}

// checkpoint writes a TrainState snapshot to cfg.CheckpointPath.
func (e *engine) checkpoint(epoch int) error {
	if err := models.SaveTrainState(e.cfg.CheckpointPath, e.captureTrainState(epoch)); err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	e.st.Checkpoints++
	return nil
}

// captureTrainState assembles a complete resumable snapshot: the server
// replica, each parked worker replica (a busy straggler cannot be
// touched; its entry stays nil and resume falls back to a server clone
// for that slot), optimizer and controller state, the loader's batch
// cursor, auxiliary RNG cursors, and the run's cumulative accounting.
// epoch is the epoch in progress (epoch+1 at an epoch boundary — the
// loader has already drawn the next epoch's order by then).
func (e *engine) captureTrainState(epoch int) *models.TrainState {
	replicas := make([]*nn.NetState, len(e.slots))
	for i, s := range e.slots {
		if !s.busy {
			replicas[i] = nn.CaptureState(s.r.m.Layers())
		}
	}
	st := &models.TrainState{
		Arch:      e.m.Name,
		Width:     e.m.Width,
		Seed:      e.cfg.Seed,
		Epoch:     epoch,
		Loader:    e.loader.Cursor(),
		Net:       nn.CaptureState(e.m.Layers()),
		Replicas:  replicas,
		Opt:       e.opt.CaptureState(e.params),
		RNGs:      e.rngStates(),
		Rounds:    e.st.Rounds,
		UpBytes:   e.st.UpBytes,
		DownBytes: e.st.DownBytes,
		Accs:      append([]float64(nil), e.st.Accs...),
		Publishes: e.st.Publishes,
	}
	if e.ctrl != nil {
		st.Ctrl = e.ctrl.CaptureState()
	}
	return st
}

// rngStates collects the auxiliary RNG cursors that travel with a
// checkpoint: the caller-registered streams in order, then the codec's
// sampling stream if it has one. restoreRNGs is the exact inverse.
func (e *engine) rngStates() []uint64 {
	var out []uint64
	for _, r := range e.cfg.CheckpointRNGs {
		out = append(out, r.State())
	}
	if sc, ok := e.codec.(statefulCodec); ok {
		out = append(out, sc.RNGState())
	}
	return out
}

func (e *engine) restoreRNGs(states []uint64) error {
	want := len(e.cfg.CheckpointRNGs)
	sc, stateful := e.codec.(statefulCodec)
	if stateful {
		want++
	}
	if len(states) != want {
		return fmt.Errorf("dist: resume: checkpoint has %d RNG streams, run has %d", len(states), want)
	}
	for i, r := range e.cfg.CheckpointRNGs {
		r.SetState(states[i])
	}
	if stateful {
		sc.SetRNGState(states[len(states)-1])
	}
	return nil
}

// restore imports a TrainState snapshot into a freshly built engine and
// its loader, returning the epoch to continue from (the worker replicas
// restore in start). Order matters: nn.RestoreState must run after the
// controller was constructed (the controller's constructor stamps
// InitBits onto every parameter; the snapshot's quant grids must win),
// and the controller and optimizer restore against the restored
// parameters.
func (e *engine) restore(st *models.TrainState) (int, error) {
	if st.Arch != e.m.Name {
		return 0, fmt.Errorf("dist: resume: checkpoint is for %q, run builds %q", st.Arch, e.m.Name)
	}
	if st.Width != e.m.Width {
		return 0, fmt.Errorf("dist: resume: checkpoint width %g, run width %g", st.Width, e.m.Width)
	}
	if st.Seed != e.cfg.Seed {
		return 0, fmt.Errorf("dist: resume: checkpoint seed %d, run seed %d", st.Seed, e.cfg.Seed)
	}
	if st.Net == nil || st.Opt == nil {
		return 0, fmt.Errorf("dist: resume: incomplete checkpoint")
	}
	if err := nn.RestoreState(e.m.Layers(), st.Net); err != nil {
		return 0, fmt.Errorf("dist: resume: %w", err)
	}
	switch {
	case e.ctrl != nil && st.Ctrl != nil:
		if err := e.ctrl.RestoreState(st.Ctrl); err != nil {
			return 0, fmt.Errorf("dist: resume: %w", err)
		}
	case e.ctrl != nil:
		return 0, fmt.Errorf("dist: resume: run has an APT controller, checkpoint has no controller state")
	case st.Ctrl != nil:
		return 0, fmt.Errorf("dist: resume: checkpoint has APT controller state, run has no controller")
	}
	if err := e.opt.RestoreState(e.params, st.Opt); err != nil {
		return 0, fmt.Errorf("dist: resume: %w", err)
	}
	if err := e.loader.Seek(st.Loader); err != nil {
		return 0, fmt.Errorf("dist: resume: %w", err)
	}
	if err := e.restoreRNGs(st.RNGs); err != nil {
		return 0, err
	}
	e.st.Rounds = st.Rounds
	e.st.UpBytes = st.UpBytes
	e.st.DownBytes = st.DownBytes
	e.st.Accs = append([]float64(nil), st.Accs...)
	e.st.Publishes = st.Publishes
	return st.Epoch, nil
}

func (e *engine) timeToPublish() bool {
	return e.cfg.PublishPath != "" && e.cfg.PublishEvery > 0 &&
		e.st.Rounds%e.cfg.PublishEvery == 0
}

// publish writes the evaluation model as a bit-packed serving checkpoint
// to cfg.PublishPath with the next monotonic version — atomically, so a
// serving process polling the path never observes a torn file.
func (e *engine) publish() error {
	m, err := e.evalModel()
	if err != nil {
		return err
	}
	v := e.st.Publishes + 1
	if err := models.SaveFileAtomic(e.cfg.PublishPath, m, v); err != nil {
		return fmt.Errorf("dist: publish: %w", err)
	}
	e.st.Publishes = v
	return nil
}
