package dist

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

// The chaos suite: scripted worker failures injected through FaultPlan,
// run under -race in CI. The heartbeat timeouts are generous (hundreds of
// milliseconds against single-digit-millisecond healthy shards) so a
// loaded machine cannot reap a merely slow healthy worker and break the
// deterministic accounting these tests pin down.

const testHeartbeat = 300 * time.Millisecond

// waitGoroutines polls until the goroutine count returns to its level
// before the run: hung workers must wake on the engine's quit channel and
// exit, never leak.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before run, %d after", before, runtime.NumGoroutine())
}

// TestHangRespawnCompletes: a worker that hangs past the heartbeat
// timeout is expelled, respawned from the server's state, and its shard
// re-dispatched — the run completes with every round at full strength.
func TestHangRespawnCompletes(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t, 2, 2)
	cfg.HeartbeatTimeout = testHeartbeat
	cfg.MaxRespawns = 2
	cfg.Fault = NewFaultPlan(Fault{Worker: 1, Round: 1, Kind: FaultHang, Delay: time.Hour})
	st, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", st.WorkersLost)
	}
	if st.Respawns != 1 {
		t.Errorf("Respawns = %d, want 1", st.Respawns)
	}
	if st.Rounds != 4 {
		t.Errorf("Rounds = %d, want 4", st.Rounds)
	}
	if st.PartialRounds != 0 {
		t.Errorf("PartialRounds = %d, want 0 (the respawn recovered the shard)", st.PartialRounds)
	}
	if len(st.Accs) != 2 {
		t.Errorf("epochs evaluated = %d, want 2", len(st.Accs))
	}
	waitGoroutines(t, before)
}

// TestHangPoolShrinks: past the respawn budget a death permanently
// shrinks the pool; the round that lost its shard steps partial and the
// survivors carry the rest of the epoch.
func TestHangPoolShrinks(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t, 2, 1)
	cfg.HeartbeatTimeout = testHeartbeat
	cfg.Fault = NewFaultPlan(Fault{Worker: 1, Round: 1, Kind: FaultHang, Delay: time.Hour})
	st, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.WorkersLost != 1 || st.Respawns != 0 {
		t.Errorf("WorkersLost = %d, Respawns = %d, want 1, 0", st.WorkersLost, st.Respawns)
	}
	if st.PartialRounds != 1 {
		t.Errorf("PartialRounds = %d, want 1", st.PartialRounds)
	}
	// 4 shards: round 1 steps on one of two, the survivor takes the
	// remaining two shards one round each.
	if st.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", st.Rounds)
	}
	if len(st.Accs) != 1 {
		t.Errorf("epochs evaluated = %d, want 1", len(st.Accs))
	}
	waitGoroutines(t, before)
}

// TestPanicToleratedElastic: a worker panic mid-gradient is recovered
// into an error; under elastic membership the round steps without that
// shard and the worker stays in the pool (resynced before its next job).
func TestPanicToleratedElastic(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	cfg.HeartbeatTimeout = time.Hour // never reaps: the panic returns promptly
	cfg.Fault = NewFaultPlan(Fault{Worker: 1, Round: 1, Kind: FaultPanic})
	st, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.WorkerErrors != 1 {
		t.Errorf("WorkerErrors = %d, want 1", st.WorkerErrors)
	}
	if st.WorkersLost != 0 {
		t.Errorf("WorkersLost = %d, want 0 (an error is not a death)", st.WorkersLost)
	}
	if st.PartialRounds != 1 {
		t.Errorf("PartialRounds = %d, want 1", st.PartialRounds)
	}
	if st.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2 (the worker rejoined for round 2)", st.Rounds)
	}
}

// TestPanicAbortsStrict: the strict barrier has no tolerance policy — a
// worker panic surfaces as a run error, recovered, never a crash.
func TestPanicAbortsStrict(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	cfg.Fault = NewFaultPlan(Fault{Worker: 0, Round: 1, Kind: FaultPanic})
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("strict run with panicking worker: err = %v, want a recovered panic error", err)
	}
}

// TestAllWorkersLost: when every worker dies and the respawn budget is
// exhausted the run must error out promptly, not hang on a barrier that
// can never fill.
func TestAllWorkersLost(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t, 2, 1)
	cfg.HeartbeatTimeout = 100 * time.Millisecond
	cfg.Fault = NewFaultPlan(
		Fault{Worker: 0, Round: 1, Kind: FaultHang, Delay: time.Hour},
		Fault{Worker: 1, Round: 1, Kind: FaultHang, Delay: time.Hour},
	)
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "workers lost") {
			t.Errorf("err = %v, want all-workers-lost error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run with every worker dead hung instead of erroring")
	}
	waitGoroutines(t, before)
}

// TestQuorumStepsPastStraggler: with MinShards set, a round whose
// straggler (and its equally doomed replacement) never delivers steps on
// its K-of-N quorum once the heartbeat grace expires, leaving the
// replacement's shard in flight rather than blocking on it.
func TestQuorumStepsPastStraggler(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t, 3, 1)
	cfg.HeartbeatTimeout = testHeartbeat
	cfg.MinShards = 2
	cfg.MaxStaleness = 8
	cfg.MaxRespawns = 1
	cfg.Fault = NewFaultPlan(
		Fault{Worker: 2, Round: 1, Kind: FaultHang, Delay: time.Hour},
		Fault{Worker: 2, Round: 1, Kind: FaultHang, Delay: time.Hour},
	)
	st, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Whether the grace period expires while the straggler's heartbeat is
	// still fresh (quorum exit, worker left in flight) or already stale
	// (reap and respawn of an equally doomed replacement) is a timing race
	// the policy absorbs either way: round 1 must step on its 2-of-3
	// quorum and the epoch must finish without the straggler's shard.
	if st.PartialRounds != 1 {
		t.Errorf("PartialRounds = %d, want 1 (round 1 stepped 2-of-3)", st.PartialRounds)
	}
	if st.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", st.Rounds)
	}
	elems := paramElems(t, cfg)
	if want := elems * 4 * 3; st.UpBytes != want {
		t.Errorf("UpBytes = %d, want %d (3 of 4 shards ingested)", st.UpBytes, want)
	}
	if len(st.Accs) != 1 {
		t.Errorf("epochs evaluated = %d, want 1", len(st.Accs))
	}
	waitGoroutines(t, before)
}

// parkedReplica builds a replica without starting its goroutine, for
// driving the server-side bookkeeping directly.
func parkedReplica(t *testing.T, cfg Config, id int) *replica {
	t.Helper()
	m, err := cfg.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := &replica{id: id, m: m, params: m.Params(), jobs: make(chan job, 1)}
	r.stage = make([]*tensor.Tensor, len(r.params))
	for i, p := range r.params {
		r.stage[i] = tensor.New(p.Value.Shape()...)
	}
	return r
}

// TestStaleAccounting drives handleResult directly — no goroutines, no
// timing — to pin the stale-gradient policy: fresh deliveries ingest,
// stale ones fold under the MaxStaleness bound or are dropped and
// counted, deliveries from replaced replicas are always dropped, a
// declared-dead worker that delivers rejoins, and a worker error marks
// the replica for resync without ingesting.
func TestStaleAccounting(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	cfg.HeartbeatTimeout = time.Hour
	cfg.MaxStaleness = 2
	if err := cfg.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	r0, r1 := parkedReplica(t, cfg, 0), parkedReplica(t, cfg, 1)
	e.slots = []*slot{
		{r: r0, alive: true, busy: true},
		{r: r1, alive: true, busy: true},
	}
	const round = 5
	e.pending = 2

	// A current-round delivery ingests and retires its shard.
	if err := e.handleResult(result{r: r0, round: round}, round); err != nil {
		t.Fatalf("fresh delivery: %v", err)
	}
	if e.got != 1 || e.pending != 1 {
		t.Errorf("after fresh delivery: got %d pending %d, want 1, 1", e.got, e.pending)
	}

	// A stale delivery within the bound folds in; it retires no
	// current-round shard.
	if err := e.handleResult(result{r: r1, round: round - 2}, round); err != nil {
		t.Fatalf("stale fold: %v", err)
	}
	if e.st.StaleFolded != 1 || e.got != 2 || e.pending != 1 {
		t.Errorf("after stale fold: folded %d got %d pending %d, want 1, 2, 1",
			e.st.StaleFolded, e.got, e.pending)
	}

	// Past the bound it is dropped.
	e.slots[1].busy = true
	if err := e.handleResult(result{r: r1, round: round - 3}, round); err != nil {
		t.Fatalf("stale drop: %v", err)
	}
	if e.st.StaleDropped != 1 || e.got != 2 {
		t.Errorf("after stale drop: dropped %d got %d, want 1, 2", e.st.StaleDropped, e.got)
	}

	// A replaced replica's delivery is always dropped and does not touch
	// the slot its successor now occupies.
	ghost := parkedReplica(t, cfg, 0)
	e.slots[0].busy = true
	if err := e.handleResult(result{r: ghost, round: round}, round); err != nil {
		t.Fatalf("replaced delivery: %v", err)
	}
	if e.st.StaleDropped != 2 || !e.slots[0].busy || e.pending != 1 {
		t.Errorf("after replaced delivery: dropped %d busy %v pending %d, want 2, true, 1",
			e.st.StaleDropped, e.slots[0].busy, e.pending)
	}

	// A declared-dead worker that delivers after all rejoins the pool.
	e.slots[1].alive = false
	e.slots[1].busy = true
	if err := e.handleResult(result{r: r1, round: round}, round); err != nil {
		t.Fatalf("rejoin delivery: %v", err)
	}
	if e.st.Rejoins != 1 || !e.slots[1].alive {
		t.Errorf("after rejoin: rejoins %d alive %v, want 1, true", e.st.Rejoins, e.slots[1].alive)
	}
	if e.got != 3 || e.pending != 0 {
		t.Errorf("after rejoin: got %d pending %d, want 3, 0", e.got, e.pending)
	}

	// A worker error ingests nothing and flags the replica for resync.
	e.slots[0].busy = true
	e.slots[0].needSync = false
	e.pending = 1
	if err := e.handleResult(result{r: r0, round: round, err: errors.New("boom")}, round); err != nil {
		t.Fatalf("error delivery: %v", err)
	}
	if e.st.WorkerErrors != 1 || e.got != 3 || e.pending != 0 || !e.slots[0].needSync {
		t.Errorf("after error delivery: errors %d got %d pending %d needSync %v, want 1, 3, 0, true",
			e.st.WorkerErrors, e.got, e.pending, e.slots[0].needSync)
	}
}

func TestElasticValidation(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	cfg.MinShards = 1 // no heartbeat timeout
	if _, err := Run(cfg); err == nil {
		t.Error("MinShards without HeartbeatTimeout did not error")
	}

	cfg = testConfig(t, 2, 1)
	cfg.HeartbeatTimeout = time.Second
	cfg.MinShards = 3 // more than Workers
	if _, err := Run(cfg); err == nil {
		t.Error("MinShards > Workers did not error")
	}

	cfg = testConfig(t, 2, 1)
	cfg.CheckpointEvery = 2 // no path
	if _, err := Run(cfg); err == nil {
		t.Error("CheckpointEvery without CheckpointPath did not error")
	}
}
