// Package serve turns a compiled inference engine into a concurrent
// classification service with dynamic micro-batching — the serving tier
// of the deployment story: the paper's integer quantization scheme was
// chosen for efficient inference, and efficient inference under load
// means batching many callers' samples into one integer GEMM.
//
// # Batching policy
//
// Requests enter one bounded queue. Each worker goroutine (one per engine
// replica lease) blocks for a first request, then keeps gathering until
// either the batch holds MaxBatch samples or MaxDelay has elapsed since
// the batch opened — the standard latency/throughput knob pair: MaxDelay
// bounds the extra latency the first request of a batch can pay, MaxBatch
// bounds how much work one GEMM fuses. A batch never waits for more than
// MaxDelay and never waits at all while the queue is non-empty and full
// batches are available. Batched execution is bit-identical to running
// each sample alone (the engine's integer arithmetic is batch-invariant),
// so batching is purely a throughput optimization.
//
// # Backpressure
//
// The queue is bounded at QueueCap. When it is full, Classify (and the
// HTTP /classify endpoint) fail fast with ErrOverloaded instead of
// queueing unboundedly — callers see 503 and retry against a healthy
// replica rather than stacking latency. Rejected requests are counted in
// Stats.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Classifier is the engine-side contract: batched argmax classification.
// *infer.Engine satisfies it; tests inject stubs.
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
	// MaxBatch is the largest batch one worker fuses. Default 32.
	MaxBatch int
	// MaxDelay is how long an open batch waits for more requests before
	// running. Zero means the default, 2ms — there is no greedy (no-wait)
	// setting; pass a small positive duration to approximate one.
	MaxDelay time.Duration
	// QueueCap bounds the request queue; a full queue rejects with
	// ErrOverloaded. Default 4·MaxBatch·Workers.
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
	// which is then Swapped in atomically.
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

// request is one queued sample.
type request struct {
	img  []float32
	ctx  context.Context
	resp chan response // buffered 1; reply() sends at most once
	enq  time.Time

	abandoned atomic.Bool // caller returned (ctx expired); drop lazily
	answered  atomic.Bool // reply() guard
}

// reply delivers the response unless one was already delivered. The
// channel is buffered and written at most once, so reply never blocks
// even when the caller has abandoned the request.
func (r *request) reply(resp response) {
	if r.answered.CompareAndSwap(false, true) {
		r.resp <- resp
	}
}

// expired reports whether the request is not worth running: its caller
// has already returned, or its context is done.
func (r *request) expired() bool {
	if r.abandoned.Load() {
		return true
	}
	select {
	case <-r.ctx.Done():
		return true
	default:
		return false
	}
}

type response struct {
	class int
	err   error
}

// Server is a micro-batching classification server.
type Server struct {
	cfg    Config
	sample int
	queue  chan *request

	engine atomic.Pointer[engineBox] // current model; see swap.go
	swapMu sync.Mutex                // serializes Swap version bumps

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool

	wg    sync.WaitGroup
	start time.Time

	live  atomic.Int64 // worker slots currently alive (conserved by respawn)
	ready atomic.Bool  // warmup (or first batch) completed

	satMu    sync.Mutex
	satSince time.Time // first Health observation of queue saturation; zero when unsaturated

	requests atomic.Uint64
	batches  atomic.Uint64
	rejected atomic.Uint64
	errored  atomic.Uint64
	panics   atomic.Uint64
	dropped  atomic.Uint64 // expired requests discarded before the engine
	canceled atomic.Uint64 // callers that returned on ctx deadline/cancel
	swaps    atomic.Uint64

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
		queue:  make(chan *request, cfg.QueueCap),
		start:  time.Now(),
	}
	s.engine.Store(&engineBox{c: cfg.Engine, version: 1})
	s.wg.Add(cfg.Workers)
	s.live.Add(int64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.Warmup {
		go s.warmup()
	} else {
		s.ready.Store(true)
	}
	return s, nil
}

// Classify submits one CHW sample and blocks until its micro-batch has
// run. It returns ErrOverloaded immediately when the queue is full. The
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
	if len(img) != s.sample {
		return 0, fmt.Errorf("serve: %w: sample has %d values, want %d (C·H·W = %d·%d·%d)",
			tensor.ErrShape, len(img), s.sample, s.cfg.InC, s.cfg.InH, s.cfg.InW)
	}
	if err := ctx.Err(); err != nil {
		s.canceled.Add(1)
		return 0, ctxErr(err)
	}
	req := &request{img: img, ctx: ctx, resp: make(chan response, 1), enq: time.Now()}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, ErrClosed
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.rejected.Add(1)
		return 0, ErrOverloaded
	}
	select {
	case r := <-req.resp:
		return r.class, r.err
	case <-ctx.Done():
		req.abandoned.Store(true)
		// When the response and the expiry race, prefer the response:
		// the batch ran and was counted as served, so answering
		// ErrDeadline here would report a completed request as failed.
		select {
		case r := <-req.resp:
			return r.class, r.err
		default:
		}
		s.canceled.Add(1)
		return 0, ctxErr(ctx.Err())
	}
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

// worker is one batching loop: block for a request, gather until the
// batch is full or MaxDelay elapses, run the engine once for the whole
// batch, deliver per-request results.
//
// The loop is panic-isolated: if anything in the batch path panics
// (realistically the engine), the deferred recovery answers every
// request of the in-flight batch with ErrEnginePanic and respawns the
// worker. The respawned goroutine inherits this worker's WaitGroup slot,
// so Close still waits for exactly Workers exits and the live-worker
// gauge is conserved — capacity is never silently lost.
func (s *Server) worker() {
	var cur []*request // in-flight batch, visible to the recovery path
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			n := uint64(0)
			err := fmt.Errorf("%w: %v", ErrEnginePanic, r)
			for _, req := range cur {
				// reply is CAS-guarded: requests runBatch already
				// answered are skipped.
				if req.answered.CompareAndSwap(false, true) {
					req.resp <- response{err: err}
					n++
				}
			}
			s.requests.Add(n)
			s.errored.Add(n)
			s.batches.Add(1)
			go s.worker() // inherit the wg slot and live count
			return
		}
		s.live.Add(-1)
		s.wg.Done()
	}()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	buf := make([]float32, s.cfg.MaxBatch*s.sample)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		if first.expired() {
			s.drop(first)
			continue
		}
		cur = append(batch[:0], first)
		timer.Reset(s.cfg.MaxDelay)
		fired := false
	gather:
		for len(cur) < s.cfg.MaxBatch {
			select {
			case req, ok := <-s.queue:
				if !ok {
					break gather // closed: run what we have
				}
				if req.expired() {
					s.drop(req)
					continue
				}
				cur = append(cur, req)
			case <-timer.C:
				fired = true
				break gather
			}
		}
		if !fired && !timer.Stop() {
			<-timer.C
		}
		s.runBatch(cur, buf)
		batch = cur[:0]
		cur = nil // answered; recovery must not touch it
	}
}

// drop discards an expired request before it reaches the engine — the
// lazy half of the cancellation contract (the eager half is the caller's
// select in ClassifyCtx). The reply is a no-op when the caller is gone.
func (s *Server) drop(req *request) {
	s.dropped.Add(1)
	err := ErrDeadline
	if cerr := req.ctx.Err(); cerr != nil {
		err = ctxErr(cerr)
	}
	req.reply(response{err: err})
}

// runBatch packs the gathered samples into one tensor, classifies them
// with a single engine call, and answers every request. The engine is
// read once per batch from the atomic holder, so a concurrent Swap takes
// effect on the next batch while this one finishes on the old engine.
func (s *Server) runBatch(batch []*request, buf []float32) {
	n := len(batch)
	for i, req := range batch {
		copy(buf[i*s.sample:(i+1)*s.sample], req.img)
	}
	x, err := tensor.FromSlice(buf[:n*s.sample], n, s.cfg.InC, s.cfg.InH, s.cfg.InW)
	var preds []int
	if err == nil {
		preds, err = s.engine.Load().c.Classify(x)
		if err == nil && len(preds) != n {
			err = fmt.Errorf("serve: engine returned %d predictions for %d samples", len(preds), n)
		}
	}
	done := time.Now()
	s.batches.Add(1)
	s.requests.Add(uint64(n))
	if err != nil {
		s.errored.Add(uint64(n))
	} else {
		s.ready.Store(true)
	}
	s.latMu.Lock()
	for _, req := range batch {
		s.lat[s.latPos] = done.Sub(req.enq).Nanoseconds()
		s.latPos = (s.latPos + 1) % len(s.lat)
		if s.latN < len(s.lat) {
			s.latN++
		}
	}
	s.latMu.Unlock()
	for i, req := range batch {
		if err != nil {
			req.reply(response{err: err})
			continue
		}
		req.reply(response{class: preds[i]})
	}
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Requests uint64 `json:"requests"`
	Batches  uint64 `json:"batches"`
	Rejected uint64 `json:"rejected"`
	Errored  uint64 `json:"errored"`
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
		Batches:      s.batches.Load(),
		Rejected:     s.rejected.Load(),
		Errored:      s.errored.Load(),
		Panics:       s.panics.Load(),
		Dropped:      s.dropped.Load(),
		Canceled:     s.canceled.Load(),
		Swaps:        s.swaps.Load(),
		ModelVersion: s.engine.Load().version,
		LiveWorkers:  int(s.live.Load()),

		HTTPRequests:    s.httpRequests.Load(),
		DecodeBytes:     s.decodeBytes.Load(),
		DecodeNs:        s.decodeNs.Load(),
		DecodeFallbacks: s.decodeFallbacks.Load(),
	}
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
