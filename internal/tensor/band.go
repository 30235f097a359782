package tensor

import "time"

// The band driver: the one lane loop under both conv engines. A conv call
// is a set of independent band tasks, each running gather (operands into
// the lane's cache-resident tile), compute (the packed micro-kernels) and
// epilogue (drain the tile into the output) on a lane — a per-worker
// scratch slot. Jobs are value types and runBands is generic over them, so
// the serial path keeps the job on the caller's stack and allocates
// nothing (a closure handed to the pool escapes to the heap).
type bandJob interface {
	gather(t, lane int)
	compute(t, lane int)
	epilogue(t, lane int)
}

// bandLanes is the lane count of a call of tasks band tasks — one per
// worker, at most one per task — and so the per-lane scratch slots its
// caller provides.
func bandLanes(tasks int) int { return min(maxWorkers, tasks) }

// runBands runs every task of j. A non-nil clock forces the serial path
// and accrues the hooks' wall time into clock[0] (gather), clock[1]
// (compute) and clock[2] (epilogue); lanes never select data, so results
// depend on neither the clock nor the worker count.
func runBands[J bandJob](j J, tasks int, clock *[3]time.Duration) {
	switch {
	case clock != nil:
		for t := 0; t < tasks; t++ {
			t0 := time.Now()
			j.gather(t, 0)
			t1 := time.Now()
			j.compute(t, 0)
			t2 := time.Now()
			j.epilogue(t, 0)
			clock[0] += t1.Sub(t0)
			clock[1] += t2.Sub(t1)
			clock[2] += time.Since(t2)
		}
	case bandLanes(tasks) <= 1:
		for t := 0; t < tasks; t++ {
			j.gather(t, 0)
			j.compute(t, 0)
			j.epilogue(t, 0)
		}
	default:
		jc := j // a job over 128 bytes is captured by reference: only this copy may move to the heap
		ParallelForWorker(tasks, func(t, lane int) {
			jc.gather(t, lane)
			jc.compute(t, lane)
			jc.epilogue(t, lane)
		})
	}
}
