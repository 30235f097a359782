// Package serve turns a compiled inference engine into a concurrent
// classification service with dynamic micro-batching — the serving tier
// of the deployment story: the paper's integer quantization scheme was
// chosen for efficient inference, and efficient inference under load
// means batching many callers' samples into one integer GEMM.
//
// # Batching policy
//
// Requests enter one bounded queue. A queue entry is a group of 1 to
// MaxBatch samples — one for Classify, a run of a POST's "inputs" for the
// HTTP handler — that is queued, dropped, run and answered as a unit, so
// the samples of one POST ride one engine call. Each worker goroutine
// blocks for a first group, takes whatever else is already queued, yields
// the processor a fixed number of times (gatherYields) so that submitters
// which are already runnable get to enqueue, and runs the batch as soon as
// the queue is still dry: an idle server answers a lone request at the
// engine's batch-1 latency, and batches grow by themselves under load
// because requests pile up in the queue while the engine is busy. MaxBatch
// is what bounds fusion; a group that does not fit the open batch is held
// over whole and opens the next one. MaxDelay is only the upper bound on
// gathering, for a trickle of arrivals that keeps finding the queue
// non-empty after every yield. Batched execution is bit-identical to
// running each sample alone (the engine's integer arithmetic is
// batch-invariant), so batching is purely a throughput optimization.
//
// # Backpressure
//
// The queue is bounded at QueueCap samples. A group that does not fit is
// refused whole: Classify (and the HTTP /classify endpoint) fail fast with
// ErrOverloaded instead of queueing unboundedly — callers see 503 and
// retry against a healthy replica rather than stacking latency. Rejected
// samples are counted in Stats.
//
// # Fault tolerance
//
// The server is built to survive the failures a serving tier actually
// sees, not just the happy path:
//
//   - Deadlines & cancellation: ClassifyCtx threads a context through
//     the queue. A caller whose context expires returns immediately with
//     ErrDeadline/ErrCanceled; its queued work is lazily dropped by the
//     workers before it ever reaches the GEMM (Stats.Dropped).
//   - Panic isolation: a panicking engine cannot strand callers or
//     silently shrink capacity. The worker recovers, answers every
//     request of the failed batch with ErrEnginePanic, counts the event
//     in Stats.Panics, and respawns itself so the worker count is
//     conserved.
//   - Hot swap: Swap atomically replaces the engine under load
//     (in-flight batches finish on the old engine; see swap.go).
//   - Health: Health reports starting/ok/degraded/draining with the
//     live worker count and queue depth (see health.go).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Classifier is the engine-side contract: batched argmax classification.
// The returned slice must be freshly allocated: the server hands callers
// sub-slices of it. *infer.Engine satisfies it; tests inject stubs.
type Classifier interface {
	Classify(x *tensor.Tensor) ([]int, error)
}

// ErrOverloaded is returned when the request queue is full (backpressure:
// fail fast, let the caller retry or shed load).
var ErrOverloaded = errors.New("serve: queue full")

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrDeadline is returned when a request's context deadline expires
// before its micro-batch has run. The queued work is dropped before it
// reaches the engine.
var ErrDeadline = errors.New("serve: request deadline exceeded")

// ErrCanceled is returned when a request's context is canceled (the
// caller went away). The queued work is dropped before it reaches the
// engine.
var ErrCanceled = errors.New("serve: request canceled")

// ErrEnginePanic is the error every request of a batch receives when the
// engine panicked while classifying it. The worker that hit the panic
// respawns, so capacity is not lost.
var ErrEnginePanic = errors.New("serve: engine panicked")

// Config configures New.
type Config struct {
	// Engine classifies packed (N, C, H, W) batches. It must be safe for
	// concurrent calls when Workers > 1 (infer.Engine is). It can be
	// replaced at runtime with Server.Swap.
	Engine Classifier
	// InC, InH, InW is the per-sample input geometry. When all three are
	// zero and the engine reports its own geometry (infer.Engine does,
	// via InputShape), it is taken from the engine.
	InC, InH, InW int
	// Workers is the number of batching worker goroutines (engine
	// replicas served from the engine's scratch pool). Default 1.
	Workers int
	// MaxBatch is the largest batch one worker fuses, in samples; it is
	// what bounds fusion. Default 32.
	MaxBatch int
	// MaxDelay is the upper bound on how long an open batch keeps
	// gathering. A batch normally runs as soon as the queue is dry (see
	// "Batching policy" in the package comment), long before it; the bound
	// only ends a gather that a trickle of arrivals keeps alive. Zero means
	// the default, 2ms.
	MaxDelay time.Duration
	// QueueCap bounds the request queue, in samples; a request that does
	// not fit is rejected with ErrOverloaded. Default 4·MaxBatch·Workers.
	QueueCap int
	// DefaultDeadline, when positive, bounds every HTTP /classify
	// request that does not carry its own deadline_ms. Zero means no
	// server-imposed deadline. ClassifyCtx is not affected — its context
	// is the caller's to bound.
	DefaultDeadline time.Duration
	// SaturationGrace is how long queue saturation (depth at or above
	// 90% of QueueCap) must persist — as observed by successive Health
	// probes — before Health reports degraded and /readyz drops to 503.
	// The hysteresis keeps a synchronized traffic burst from flipping
	// every replica not-ready at the same instant and ejecting the whole
	// fleet from the load balancer; momentary spikes are already handled
	// by per-request ErrOverloaded backpressure. Default 2s.
	SaturationGrace time.Duration
	// Reload, when set, enables POST /admin/reload and Server.Reload:
	// it produces a fresh Classifier (e.g. by re-reading a checkpoint)
	// which is then Swapped in atomically. Server.Reload runs it under a
	// lock, one call at a time, so it must not call Server.Reload itself.
	Reload func() (Classifier, error)
	// ReloadRetries is how many extra attempts Server.Reload makes when
	// the reload function fails — a checkpoint caught mid-replace by a
	// non-atomic publisher, a transient read error — with jittered
	// backoff between attempts. 0 fails on the first error. Swap errors
	// (geometry mismatch) are permanent and never retried.
	ReloadRetries int
	// ReloadBackoff is the base delay between reload attempts; each wait
	// adds up to 50% random jitter so a fleet of replicas watching the
	// same checkpoint does not retry in lockstep. Default 50ms.
	ReloadBackoff time.Duration
	// Warmup, when true, runs one zero-sample classification through the
	// request queue in the background after New returns; Health reports
	// "starting" until it (or the first real batch) completes. Off by
	// default so unit tests with gated stub engines are not perturbed.
	Warmup bool
}

// group is one queue entry: 1..MaxBatch samples that are validated, queued,
// expired or dropped, run and answered as a unit.
type group struct {
	imgs [][]float32
	one  [1][]float32 // backs imgs for a single sample: Classify allocates no [][]float32
	ctx  context.Context
	enq  time.Time
	// reply() stores res, then signals done (buffered 1) — at most once. The
	// channel carries no payload so that it is one allocation, not two.
	res  response
	done chan struct{}

	abandoned atomic.Bool // caller returned (ctx expired, or a sibling group failed); drop lazily
	answered  atomic.Bool // reply() guard
}

// newGroup makes a group of imgs, which it keeps (no copy).
func newGroup(ctx context.Context, imgs [][]float32) *group {
	return &group{imgs: imgs, ctx: ctx, done: make(chan struct{}, 1)}
}

// reply delivers the response unless one was already delivered. The
// channel is buffered and written at most once, so reply never blocks
// even when the caller has abandoned the group.
func (g *group) reply(resp response) {
	if g.answered.CompareAndSwap(false, true) {
		g.res = resp
		g.done <- struct{}{}
	}
}

// expired reports whether the group is not worth running: its caller has
// already returned, or its context is done.
func (g *group) expired() bool {
	if g.abandoned.Load() {
		return true
	}
	select {
	case <-g.ctx.Done():
		return true
	default:
		return false
	}
}

// response answers a group: its samples' classes — a sub-slice of the
// engine's result, never memory the caller owns — or the error they share.
type response struct {
	classes []int
	err     error
}

// Server is a micro-batching classification server.
type Server struct {
	cfg    Config
	sample int
	queue  chan *group  // QueueCap entries, so a group the gauge admitted never blocks
	queued atomic.Int64 // samples in queue: what QueueCap, Health and saturation count

	engine atomic.Pointer[engineBox] // current model; see swap.go
	swapMu sync.Mutex                // serializes Swap version bumps
	// reloadMu serializes Reload end to end, reload function and swap, so
	// reloads land in the order they ran and never overlap in the reload
	// function (a recompile of one model, say).
	reloadMu sync.Mutex

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool

	wg    sync.WaitGroup
	start time.Time

	live  atomic.Int64 // worker slots currently alive (conserved by respawn)
	ready atomic.Bool  // warmup (or first batch) completed

	satMu    sync.Mutex
	satSince time.Time // first Health observation of queue saturation; zero when unsaturated

	// All in samples, whatever the size of the groups that carried them.
	requests atomic.Uint64
	rejected atomic.Uint64
	errored  atomic.Uint64
	panics   atomic.Uint64
	dropped  atomic.Uint64 // expired requests discarded before the engine
	canceled atomic.Uint64 // callers that returned on ctx deadline/cancel
	swaps    atomic.Uint64

	// Engine calls by why the gather ended (their sum is Stats.Batches), and
	// the time samples spent between enqueue and the start of their batch.
	batchesFull    atomic.Uint64
	batchesDry     atomic.Uint64
	batchesTimeout atomic.Uint64
	queueWaitNs    atomic.Uint64

	// /classify ingress (http.go, decode.go)
	httpRequests    atomic.Uint64
	decodeBytes     atomic.Uint64
	decodeNs        atomic.Uint64
	decodeFallbacks atomic.Uint64

	latMu  sync.Mutex
	lat    [4096]int64 // ns, ring buffer
	latN   int
	latPos int
}

// New validates the configuration and starts the worker goroutines.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Engine is required")
	}
	if cfg.InC == 0 && cfg.InH == 0 && cfg.InW == 0 {
		if shaped, ok := cfg.Engine.(interface{ InputShape() (c, h, w int) }); ok {
			cfg.InC, cfg.InH, cfg.InW = shaped.InputShape()
		}
	}
	if cfg.InC <= 0 || cfg.InH <= 0 || cfg.InW <= 0 {
		return nil, fmt.Errorf("serve: input geometry (%d,%d,%d) must be positive", cfg.InC, cfg.InH, cfg.InW)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.MaxDelay < 0 {
		return nil, fmt.Errorf("serve: negative MaxDelay")
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.MaxBatch * cfg.Workers
	}
	if cfg.DefaultDeadline < 0 {
		return nil, fmt.Errorf("serve: negative DefaultDeadline")
	}
	if cfg.SaturationGrace < 0 {
		return nil, fmt.Errorf("serve: negative SaturationGrace")
	}
	if cfg.SaturationGrace == 0 {
		cfg.SaturationGrace = 2 * time.Second
	}
	s := &Server{
		cfg:    cfg,
		sample: cfg.InC * cfg.InH * cfg.InW,
		queue:  make(chan *group, cfg.QueueCap),
		start:  time.Now(),
	}
	s.engine.Store(&engineBox{c: cfg.Engine, version: 1})
	s.wg.Add(cfg.Workers)
	s.live.Add(int64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(nil)
	}
	if cfg.Warmup {
		go s.warmup()
	} else {
		s.ready.Store(true)
	}
	return s, nil
}

// Classify submits one CHW sample and blocks until its micro-batch has
// run. It returns ErrOverloaded immediately when the queue is full.
// QueueCap and every Stats counter are in samples: a multi-sample POST
// counts once per sample, exactly like that many Classify calls. The
// caller keeps ownership of the sample slice, and after a nil-error return
// (or any error but the two below) nothing reads it again. After
// ClassifyCtx returns ErrDeadline or ErrCanceled, however, the abandoned
// request is still queued and a worker may read the slice until it drops
// or runs it — so a caller that recycles sample buffers must not reuse one
// after such a return (the HTTP handler never recycles its float block
// for this reason).
func (s *Server) Classify(img []float32) (int, error) {
	return s.ClassifyCtx(context.Background(), img)
}

// ClassifyCtx is Classify with a deadline/cancellation contract: when ctx
// expires before the sample's micro-batch has run, the call returns
// ErrDeadline (or ErrCanceled) immediately and the queued work is lazily
// dropped by the workers — abandoned samples never reach the GEMM. A ctx
// that expires while the batch is already running does not interrupt the
// engine; the result is returned if it is already available when the
// caller observes the expiry, and discarded otherwise.
func (s *Server) ClassifyCtx(ctx context.Context, img []float32) (int, error) {
	g := newGroup(ctx, nil)
	g.one[0] = img
	g.imgs = g.one[:]
	if err := s.submit(g); err != nil {
		return 0, err
	}
	classes, err := s.await(g)
	if err != nil {
		return 0, err
	}
	return classes[0], nil
}

// submit validates g and queues it, or refuses it whole. g.imgs holds at
// least one sample and at most MaxBatch.
func (s *Server) submit(g *group) error {
	n := len(g.imgs)
	for _, img := range g.imgs {
		if len(img) != s.sample {
			return fmt.Errorf("serve: %w: sample has %d values, want %d (C·H·W = %d·%d·%d)",
				tensor.ErrShape, len(img), s.sample, s.cfg.InC, s.cfg.InH, s.cfg.InW)
		}
	}
	if err := g.ctx.Err(); err != nil {
		s.canceled.Add(uint64(n))
		return ctxErr(err)
	}
	g.enq = time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.queued.Add(int64(n)) > int64(s.cfg.QueueCap) {
		s.queued.Add(int64(-n))
		s.rejected.Add(uint64(n))
		return ErrOverloaded
	}
	// Entries never outnumber samples, and a worker lowers the gauge only
	// after it has taken the entry out, so there is room.
	s.queue <- g
	return nil
}

// await blocks until g, which submit accepted, is answered or its context
// is done.
func (s *Server) await(g *group) ([]int, error) {
	select {
	case <-g.done:
	case <-g.ctx.Done():
		g.abandoned.Store(true)
		// When the response and the expiry race, prefer the response:
		// the batch ran and was counted as served, so answering
		// ErrDeadline here would report a completed request as failed.
		select {
		case <-g.done:
		default:
			s.canceled.Add(uint64(len(g.imgs)))
			return nil, ctxErr(g.ctx.Err())
		}
	}
	return g.res.classes, g.res.err
}

// ctxErr maps a context error onto the service's sentinel errors.
func ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrCanceled
}

// Close stops accepting requests, drains the queue, and waits for the
// workers to finish their in-flight batches. Every request accepted
// before Close is answered.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// isClosed reports whether Close has begun (the server is draining).
func (s *Server) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// warmup pushes one zero sample through the normal request queue so the
// first real request does not pay cold-start costs (page faults on packed
// panels, pool growth); Health reports "starting" until it completes.
// Going through the queue keeps the engine's concurrency contract intact
// (Config.Engine only promises concurrent safety when Workers > 1, and
// warmup must not be an extra concurrent caller) and hands a panicking or
// erroring engine to the worker's isolation path — the warmup result,
// whatever it is, is discarded.
func (s *Server) warmup() {
	defer s.ready.Store(true)
	_, _ = s.Classify(make([]float32, s.sample))
}

// gatherYields is how many times in a row a worker that finds the queue dry
// yields the processor before it runs the open batch. The yields are what
// lets a batch form at all under load: the callers the previous batch just
// answered are runnable but have not yet enqueued their next request. They
// cost an idle server nothing (a yield with nothing else runnable returns at
// once). PERF.md "Serving: batching policy" has the measurements behind 2.
const gatherYields = 2

// worker is one batching loop: block for a group, gather until the batch
// is full or the queue stays dry (MaxDelay at the latest), run the engine
// once for the whole batch, answer every group. held is a group the
// previous batch had no room for; it opens this worker's first batch.
//
// The loop is panic-isolated: if anything in the batch path panics
// (realistically the engine), the deferred recovery answers every
// group of the in-flight batch with ErrEnginePanic and respawns the
// worker. The respawned goroutine inherits this worker's WaitGroup slot
// and its held-over group, so Close still waits for exactly Workers exits,
// the live-worker gauge is conserved and no accepted group is stranded —
// capacity is never silently lost.
func (s *Server) worker(held *group) {
	var (
		cur []*group       // in-flight batch, visible to the recovery path
		why *atomic.Uint64 // its batches* counter
	)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			n := uint64(0)
			err := fmt.Errorf("%w: %v", ErrEnginePanic, r)
			for _, g := range cur {
				// reply is CAS-guarded: groups runBatch already
				// answered are skipped.
				if !g.answered.Load() {
					g.reply(response{err: err})
					n += uint64(len(g.imgs))
				}
			}
			s.requests.Add(n)
			s.errored.Add(n)
			if why != nil {
				why.Add(1)
			}
			go s.worker(held) // inherit the wg slot and live count
			return
		}
		s.live.Add(-1)
		s.wg.Done()
	}()
	batch := make([]*group, 0, s.cfg.MaxBatch)
	buf := make([]float32, s.cfg.MaxBatch*s.sample)
	for {
		first := held
		held = nil
		if first == nil {
			var ok bool
			if first, ok = s.take(true); !ok {
				return
			}
		}
		if first.expired() {
			s.drop(first)
			continue
		}
		cur, why = append(batch[:0], first), &s.batchesDry
		n := len(first.imgs)
		opened := time.Now()
		for yields := 0; n < s.cfg.MaxBatch; {
			g, ok := s.take(false)
			if !ok {
				// Dry (or closed and drained). Yield, then look again.
				if yields == gatherYields {
					break
				}
				yields++
				runtime.Gosched()
				continue
			}
			if g.expired() {
				s.drop(g)
				continue
			}
			if n+len(g.imgs) > s.cfg.MaxBatch {
				held = g // never split, never run past MaxBatch
				break
			}
			cur = append(cur, g)
			n += len(g.imgs)
			if yields > 0 {
				// It arrived during a yield, so more may follow: keep
				// gathering, but not past MaxDelay.
				if time.Since(opened) >= s.cfg.MaxDelay {
					why = &s.batchesTimeout
					break
				}
				yields = 0
			}
		}
		if n == s.cfg.MaxBatch || held != nil {
			why = &s.batchesFull
		}
		s.runBatch(cur, n, buf)
		why.Add(1)
		batch = cur[:0]
		cur, why = nil, nil // answered and counted; recovery must not touch them
	}
}

// take removes the next group from the queue, blocking for one when block
// is set. ok is false when there is none: the queue is empty (or, for a
// blocking take, closed and drained).
func (s *Server) take(block bool) (g *group, ok bool) {
	if block {
		g, ok = <-s.queue
	} else {
		select {
		case g, ok = <-s.queue:
		default:
		}
	}
	if ok {
		s.queued.Add(int64(-len(g.imgs)))
	}
	return g, ok
}

// drop discards an expired group before it reaches the engine — the
// lazy half of the cancellation contract (the eager half is the caller's
// select in await). The reply is a no-op when the caller is gone.
func (s *Server) drop(g *group) {
	s.dropped.Add(uint64(len(g.imgs)))
	err := ErrDeadline
	if cerr := g.ctx.Err(); cerr != nil {
		err = ctxErr(cerr)
	}
	g.reply(response{err: err})
}

// runBatch packs the n samples of the gathered groups into one tensor,
// classifies them with a single engine call, and answers every group. The
// engine is read once per batch from the atomic holder, so a concurrent
// Swap takes effect on the next batch while this one finishes on the old
// engine.
func (s *Server) runBatch(batch []*group, n int, buf []float32) {
	began := time.Now()
	var waited time.Duration
	at := 0
	for _, g := range batch {
		waited += began.Sub(g.enq) * time.Duration(len(g.imgs))
		for _, img := range g.imgs {
			at += copy(buf[at:at+s.sample], img)
		}
	}
	s.queueWaitNs.Add(uint64(waited))
	x, err := tensor.FromSlice(buf[:n*s.sample], n, s.cfg.InC, s.cfg.InH, s.cfg.InW)
	var preds []int
	if err == nil {
		preds, err = s.engine.Load().c.Classify(x)
		if err == nil && len(preds) != n {
			err = fmt.Errorf("serve: engine returned %d predictions for %d samples", len(preds), n)
		}
	}
	done := time.Now()
	s.requests.Add(uint64(n))
	if err != nil {
		s.errored.Add(uint64(n))
	} else {
		s.ready.Store(true)
	}
	s.latMu.Lock()
	for _, g := range batch {
		for range g.imgs {
			s.lat[s.latPos] = done.Sub(g.enq).Nanoseconds()
			s.latPos = (s.latPos + 1) % len(s.lat)
		}
	}
	s.latN = min(s.latN+n, len(s.lat))
	s.latMu.Unlock()
	at = 0
	for _, g := range batch {
		if err != nil {
			g.reply(response{err: err})
			continue
		}
		g.reply(response{classes: preds[at : at+len(g.imgs) : at+len(g.imgs)]})
		at += len(g.imgs)
	}
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Requests, Rejected, Errored, Dropped and Canceled count samples: a
	// 16-sample POST moves them exactly as 16 single-sample requests do.
	Requests uint64 `json:"requests"`
	Batches  uint64 `json:"batches"`
	Rejected uint64 `json:"rejected"`
	Errored  uint64 `json:"errored"`
	// Why each batch stopped gathering and ran; the three sum to Batches.
	// Full: it reached MaxBatch, or the next group did not fit. Dry: the
	// queue stayed empty through the worker's yields — the normal close on
	// a server with headroom. Timeout: arrivals kept the gather alive until
	// MaxDelay.
	BatchesFull    uint64 `json:"batches_full"`
	BatchesDry     uint64 `json:"batches_dry"`
	BatchesTimeout uint64 `json:"batches_timeout"`
	// QueueWaitNs is the time between enqueue and the start of the batch,
	// summed over samples; QueueWaitNs/Requests is the mean queue wait.
	QueueWaitNs uint64 `json:"queue_wait_ns"`
	// Panics counts engine panics recovered by workers (each one failed
	// a batch and respawned the worker).
	Panics uint64 `json:"panics"`
	// Dropped counts expired requests discarded before reaching the
	// engine; Canceled counts callers that returned on context
	// deadline/cancellation.
	Dropped  uint64 `json:"dropped"`
	Canceled uint64 `json:"canceled"`
	// Swaps counts hot engine replacements; ModelVersion is the current
	// engine's version (1 = the engine the server started with).
	Swaps        uint64 `json:"swaps"`
	ModelVersion uint64 `json:"model_version"`
	// LiveWorkers is the number of batching workers currently alive;
	// respawn keeps it at the configured count.
	LiveWorkers int `json:"live_workers"`
	// HTTPRequests counts POSTs to /classify. DecodeBytes and DecodeNs are
	// the body bytes parsed and the time spent parsing them (socket reads
	// excluded), so DecodeBytes/DecodeNs is the decode rate in GB/s.
	// DecodeFallbacks counts the bodies outside the single-pass grammar
	// (see decode.go) that went through encoding/json instead — malformed
	// ones included; a well-behaved client keeps it at 0.
	HTTPRequests    uint64 `json:"http_requests"`
	DecodeBytes     uint64 `json:"decode_bytes"`
	DecodeNs        uint64 `json:"decode_ns"`
	DecodeFallbacks uint64 `json:"decode_fallbacks"`
	// MeanBatch is requests per engine call — the batching win.
	MeanBatch float64 `json:"mean_batch"`
	// P50/P99 request latency (queue wait + inference) over a sliding
	// window of recent requests, in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Throughput is requests served per second of uptime.
	Throughput float64 `json:"throughput_rps"`
	UptimeSec  float64 `json:"uptime_sec"`
}

// Stats returns a snapshot of the server counters and latency quantiles.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:     s.requests.Load(),
		Rejected:     s.rejected.Load(),
		Errored:      s.errored.Load(),
		Panics:       s.panics.Load(),
		Dropped:      s.dropped.Load(),
		Canceled:     s.canceled.Load(),
		Swaps:        s.swaps.Load(),
		ModelVersion: s.engine.Load().version,
		LiveWorkers:  int(s.live.Load()),

		BatchesFull:    s.batchesFull.Load(),
		BatchesDry:     s.batchesDry.Load(),
		BatchesTimeout: s.batchesTimeout.Load(),
		QueueWaitNs:    s.queueWaitNs.Load(),

		HTTPRequests:    s.httpRequests.Load(),
		DecodeBytes:     s.decodeBytes.Load(),
		DecodeNs:        s.decodeNs.Load(),
		DecodeFallbacks: s.decodeFallbacks.Load(),
	}
	st.Batches = st.BatchesFull + st.BatchesDry + st.BatchesTimeout
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Requests) / float64(st.Batches)
	}
	up := time.Since(s.start).Seconds()
	st.UptimeSec = up
	if up > 0 {
		st.Throughput = float64(st.Requests) / up
	}
	s.latMu.Lock()
	window := make([]int64, s.latN)
	if s.latN == len(s.lat) {
		copy(window, s.lat[:])
	} else {
		copy(window, s.lat[:s.latN])
	}
	s.latMu.Unlock()
	if len(window) > 0 {
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		st.P50Ms = float64(window[len(window)/2]) / 1e6
		st.P99Ms = float64(window[len(window)*99/100]) / 1e6
	}
	return st
}
