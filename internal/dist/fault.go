package dist

import (
	"sync"
	"time"
)

// Fault injection for the engine's workers. A FaultPlan scripts worker
// failures — hangs past the heartbeat timeout, panics mid-gradient — at
// exact (worker, round) coordinates, which is what makes the chaos suite
// deterministic enough to assert on: a test knows exactly which round
// loses which shard and can check the accounting the engine reports.
// Production runs leave Config.Fault nil; every injection point is
// nil-safe and compiles to a single pointer check.

// FaultKind selects the failure a Fault injects.
type FaultKind int

const (
	// FaultHang delays the worker by Delay before it computes its shard.
	// With Delay longer than the heartbeat timeout it simulates a stalled
	// worker: the server expels it from the barrier and the (very) late
	// result arrives as a stale gradient.
	FaultHang FaultKind = iota
	// FaultPanic panics inside the worker's step. The worker's recovery
	// wrapper turns it into a worker error: fatal under the strict
	// barrier, tolerated (resync and continue) under elastic membership.
	FaultPanic
)

// Fault is one scripted failure.
type Fault struct {
	// Worker is the membership slot the fault targets.
	Worker int
	// Round is the 1-based global dispatch round the fault fires in.
	Round int
	// Kind is what happens.
	Kind FaultKind
	// Delay is the hang duration for FaultHang.
	Delay time.Duration
}

// FaultPlan is a set of scripted failures. Each fault fires at most once:
// a respawned worker re-running the same (worker, round) coordinates does
// not re-trigger it, so a respawn-and-retry always makes progress.
type FaultPlan struct {
	mu     sync.Mutex
	faults []Fault
	fired  []bool
}

// NewFaultPlan scripts the given failures.
func NewFaultPlan(faults ...Fault) *FaultPlan {
	return &FaultPlan{faults: faults, fired: make([]bool, len(faults))}
}

// take returns the first unfired fault for (worker, round) and marks it
// fired, or nil. Safe for concurrent use from worker goroutines, and safe
// on a nil plan.
func (p *FaultPlan) take(worker, round int) *Fault {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.faults {
		f := &p.faults[i]
		if !p.fired[i] && f.Worker == worker && f.Round == round {
			p.fired[i] = true
			return f
		}
	}
	return nil
}
