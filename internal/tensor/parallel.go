package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxWorkers bounds the parallel fan-out of ParallelFor. It is a variable
// (not a constant) so tests can force serial execution.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetMaxWorkers overrides the parallel fan-out used by ParallelFor. Values
// below 1 are clamped to 1; 1 forces fully serial, deterministic-order
// execution. It returns the previous setting so callers can restore it.
// This is intended for tests and benchmarks; it is not synchronized with
// in-flight operations.
func SetMaxWorkers(n int) int {
	prev := maxWorkers
	if n < 1 {
		n = 1
	}
	maxWorkers = n
	return prev
}

// MaxWorkers reports the current fan-out bound.
func MaxWorkers() int { return maxWorkers }

// ---------------------------------------------------------------------------
// Persistent worker pool.
//
// Tensor ops run ParallelFor on every call, so spawning goroutines per
// operation puts the scheduler on the hot path. Instead a fixed set of
// helpers (GOMAXPROCS-1, at least one, started on the first parallel
// operation) picks up published jobs. A training step forks about a
// hundred times, with a microsecond of serial work between forks, so the
// hand-off is kept hot on both sides:
//
//  1. Join without parking. After draining its chunks the submitter polls
//     the job's remaining count, yielding every 16 polls, and blocks on
//     done only past joinWait, which covers one straggling chunk.
//  2. Helpers poll before parking. A helper that finishes a chained job
//     (forked within helperWait of the previous join) polls the queue for
//     helperWait, yielding every 16 polls, so the next fork of a pass finds
//     it awake. After an isolated fork, such as a serving forward's, it
//     parks at once, leaving its core to the goroutines that want it.
//  3. Offer only to free cores. Submitters in flight are counted against
//     poolCores, fixed at startPool (never maxWorkers, which SetMaxWorkers
//     writes unsynchronized). A submitter that finds every core taken runs
//     its job alone, exactly the serial loop (lane 0); otherwise it offers
//     one copy per free core at most. A polling helper parks at once while
//     every core has a submitter.
//
// The submitter always drains chunks of its own job, so progress never
// depends on a free helper (nesting and a saturated pool cannot deadlock),
// and each index runs exactly once whoever claims it, so the independent
// iterations ParallelFor requires compute the same bytes whoever runs
// them, in whichever lane.
// ---------------------------------------------------------------------------

const (
	joinWait   = 100 * time.Microsecond
	helperWait = 25 * time.Microsecond
)

// parJob is one ParallelFor/ParallelForWorker invocation flowing through
// the pool. Exactly one of fn and fnw is set.
type parJob struct {
	fn    func(int)
	fnw   func(int, int) // iteration body with a participant lane ordinal
	n     int64
	chunk int64
	next  atomic.Int64 // next unclaimed index
	left  atomic.Int64 // indices not yet completed
	lanes atomic.Int64 // next unclaimed lane ordinal (fnw jobs)
	chain bool         // forked within helperWait of the previous join
	done  chan struct{}
}

// run claims and executes chunks until the index space is exhausted. The
// last participant to finish closes done. For lane-carrying jobs each
// participant claims its lane ordinal only after securing its first
// chunk, so participants that arrive to an exhausted index space never
// consume a lane; at most workers run() invocations exist per job (one
// per published copy plus the caller), so ordinals stay below the
// fan-out bound the submitter sized its lane state for.
func (j *parJob) run() {
	lane := -1
	for {
		lo := j.next.Add(j.chunk) - j.chunk
		if lo >= j.n {
			return
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		if j.fnw != nil {
			if lane < 0 {
				lane = int(j.lanes.Add(1) - 1)
			}
			for i := lo; i < hi; i++ {
				j.fnw(int(i), lane)
			}
		} else {
			for i := lo; i < hi; i++ {
				j.fn(int(i))
			}
		}
		if j.left.Add(lo-hi) == 0 {
			close(j.done)
		}
	}
}

var (
	poolOnce  sync.Once
	poolJobs  chan *parJob
	poolCores int32        // helpers + 1, fixed at startPool
	inFlight  atomic.Int32 // submitters between enter and their return
	poolStart time.Time
	lastJoin  atomic.Int64 // when a join last returned, ns after poolStart
)

// startPool launches the persistent helpers. One core is left for the
// submitting goroutine, which always works on its own job.
func startPool() {
	workers := max(runtime.GOMAXPROCS(0)-1, 1)
	poolCores = int32(workers + 1)
	poolStart = time.Now()
	poolJobs = make(chan *parJob, 4*workers)
	for i := 0; i < workers; i++ {
		go func() {
			for j := range poolJobs {
				for j != nil {
					if j.run(); !j.chain {
						break
					}
					j = nil
					pollFor(helperWait, func() bool {
						if inFlight.Load() >= poolCores {
							return true
						}
						select {
						case j = <-poolJobs:
							return true
						default:
							return false
						}
					})
				}
			}
		}()
	}
}

// pollFor calls poll until it returns true or d has passed, yielding the
// processor every 16 calls, and reports whether poll succeeded.
func pollFor(d time.Duration, poll func() bool) bool {
	start := time.Now()
	for k := 1; !poll(); k++ {
		if k%16 == 0 {
			if time.Since(start) > d {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}

// enter counts a submitter in flight and reports how many cores are left
// free for helpers. The caller decrements inFlight when its job returns.
func enter() int {
	poolOnce.Do(startPool)
	return int(poolCores - inFlight.Add(1))
}

// ParallelFor runs fn(i) for i in [0, n) across the persistent worker pool,
// blocking until all iterations complete. Each index is processed exactly
// once, so for independent iterations the result is identical to a serial
// loop regardless of scheduling. fn must not panic; iterations must be
// independent. Nested calls are safe: the caller participates in its own
// job, so progress never depends on a free pool worker.
func ParallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers := min(maxWorkers, n); workers > 1 {
		defer inFlight.Add(-1)
		if free := enter(); free > 0 {
			submitJob(&parJob{fn: fn}, n, workers, free)
			return
		}
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// ParallelForWorker runs fn(i, lane) for i in [0, n) across the worker
// pool, blocking until all iterations complete. lane is a dense ordinal
// in [0, MaxWorkers()) identifying the participating goroutine for the
// duration of the call: every iteration a participant executes sees the
// same lane, and no two concurrent participants share one. Callers use
// it to index per-participant scratch (e.g. the implicit-im2col gather
// buffers) without locking. Like ParallelFor, each index runs exactly
// once and iterations must be independent; unlike ParallelFor, results
// may depend on lane assignment only if the caller makes them (the
// tensor drivers never do — lanes select disjoint scratch, not data).
func ParallelForWorker(n int, fn func(i, lane int)) {
	if n <= 0 {
		return
	}
	if workers := min(maxWorkers, n); workers > 1 {
		defer inFlight.Add(-1)
		if free := enter(); free > 0 {
			submitJob(&parJob{fnw: fn}, n, workers, free)
			return
		}
	}
	for i := 0; i < n; i++ {
		fn(i, 0)
	}
}

// submitJob publishes a prepared job to up to min(workers-1, free) pool
// helpers and participates until every index completes.
func submitJob(j *parJob, n, workers, free int) {
	// Over-decompose by 4x for dynamic load balance without measurable
	// claiming overhead (one atomic add per chunk).
	chunk := int64(n) / int64(4*workers)
	if chunk < 1 {
		chunk = 1
	}
	j.n = int64(n)
	j.chunk = chunk
	j.done = make(chan struct{})
	j.left.Store(int64(n))
	j.chain = int64(time.Since(poolStart))-lastJoin.Load() < int64(helperWait)
	// Enlist helpers; if the queue is full the caller just does a larger
	// share itself.
offer:
	for i := 0; i < min(workers-1, free); i++ {
		select {
		case poolJobs <- j:
		default:
			break offer
		}
	}
	j.run()
	if !pollFor(joinWait, func() bool { return j.left.Load() == 0 }) {
		<-j.done
	}
	lastJoin.Store(int64(time.Since(poolStart)))
}
