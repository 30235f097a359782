package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/tensor"
)

// HTTP surface: POST /classify, GET /healthz, GET /readyz, GET /stats,
// POST /admin/reload.
//
// /classify accepts one sample or a list; each sample travels through the
// micro-batching queue individually, so concurrent clients (and the
// samples of one multi-sample request) coalesce into shared engine
// batches:
//
//	{"input": [c·h·w floats]}        -> {"class": 3}
//	{"inputs": [[...], [...], ...]}  -> {"classes": [3, 1]}
//
// Requests run under the client's connection context plus an optional
// deadline: a "deadline_ms" payload field (or Config.DefaultDeadline when
// the field is absent). A request whose deadline expires before its batch
// runs answers 504 and its queued work is dropped before the GEMM; a
// client that disconnects gets the nginx-convention 499 and is likewise
// lazily dropped.
//
// A full queue answers 503 (backpressure; clients retry), a bad payload
// 400, an engine failure or panic 500. Admission is bounded before the
// queue is ever touched: request bodies are capped at maxBodyBytes (413
// beyond it) and one request may carry at most maxInputsPerRequest
// samples, so an oversized POST cannot sidestep the queue's backpressure
// by sheer payload size. How the body becomes floats is in decode.go.

const (
	// maxBodyBytes bounds a /classify request body (64 MiB ≈ a
	// 1024-sample batch of 128×128 RGB floats with JSON overhead).
	maxBodyBytes = 64 << 20
	// maxInputsPerRequest bounds the samples one request may fan out
	// into the queue.
	maxInputsPerRequest = 1024
	// maxFanout bounds the goroutines one multi-sample request may hold
	// concurrently in the queue; remaining samples are submitted as
	// earlier ones complete.
	maxFanout = 64
	// statusClientClosedRequest is nginx's convention for "the client
	// went away before we could answer".
	statusClientClosedRequest = 499
)

// classifyRequest is the /classify payload.
type classifyRequest struct {
	Input  []float32   `json:"input,omitempty"`
	Inputs [][]float32 `json:"inputs,omitempty"`
	// DeadlineMs, when positive, bounds this request's total time in
	// milliseconds (queue wait + inference); expiry answers 504.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

type classifyResponse struct {
	Class   *int  `json:"class,omitempty"`
	Classes []int `json:"classes,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// reloadResponse is the /admin/reload success payload.
type reloadResponse struct {
	Version uint64 `json:"version"`
}

// Handler returns the HTTP mux for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", s.handleClassify)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/admin/reload", s.handleReload)
	return mux
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.httpRequests.Add(1)
	buf, status, err := readBody(w, r, maxBodyBytes)
	if err != nil {
		httpError(w, status, "read body: "+err.Error())
		return
	}
	began := time.Now()
	req, fast, err := decodeClassify(buf.Bytes())
	s.decodeNs.Add(uint64(time.Since(began)))
	s.decodeBytes.Add(uint64(buf.Len()))
	if !fast {
		s.decodeFallbacks.Add(1)
	}
	releaseBody(buf) // the decoded floats do not alias it
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.DeadlineMs < 0 {
		httpError(w, http.StatusBadRequest, "negative deadline_ms")
		return
	}
	ctx := r.Context()
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	switch {
	case req.Input != nil && req.Inputs != nil:
		httpError(w, http.StatusBadRequest, `pass either "input" or "inputs", not both`)
	case req.Inputs != nil && len(req.Inputs) == 0:
		httpError(w, http.StatusBadRequest, `empty "inputs"`)
	case len(req.Inputs) > maxInputsPerRequest:
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("request carries %d samples, max %d per request", len(req.Inputs), maxInputsPerRequest))
	case req.Input != nil:
		class, err := s.ClassifyCtx(ctx, req.Input)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, classifyResponse{Class: &class})
	case req.Inputs != nil:
		classes, err := s.classifyMany(ctx, req.Inputs)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, classifyResponse{Classes: classes})
	default:
		httpError(w, http.StatusBadRequest, `missing "input" or "inputs"`)
	}
}

// classifyMany submits the samples through a bounded worker pool (at
// most maxFanout concurrent queue entries, not one goroutine per sample)
// so they can share micro-batches; the first error wins and cancels the
// rest — once one sample bounces with ErrOverloaded the remaining ones
// are not submitted at all.
func (s *Server) classifyMany(ctx context.Context, inputs [][]float32) ([]int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	classes := make([]int, len(inputs))
	fanout := len(inputs)
	if fanout > maxFanout {
		fanout = maxFanout
	}
	var (
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	idx := make(chan int)
	wg.Add(fanout)
	for w := 0; w < fanout; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					// Fail fast: drain without submitting. The expiry must
					// still be recorded — otherwise a deadline that fires
					// while no worker is inside ClassifyCtx would leave
					// firstErr nil and the handler would answer 200 with
					// zero-valued classes for samples never classified. A
					// sibling's error still wins: errOnce was set before
					// its cancel() made ctx.Err() non-nil here.
					errOnce.Do(func() { firstErr = ctxErr(err) })
					continue
				}
				class, err := s.ClassifyCtx(ctx, inputs[i])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					continue
				}
				classes[i] = class
			}
		}()
	}
	for i := range inputs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return classes, nil
}

// handleHealthz is the liveness probe: the process is worth keeping for
// every state except draining. The body carries the full health view so
// operators can see degraded/starting without a separate endpoint.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	h := s.Health()
	status := http.StatusOK
	if h.State == HealthDraining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleReadyz is the readiness probe: 200 only when a load balancer
// should send traffic here (warmed up, not draining, not saturated).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	h := s.Health()
	status := http.StatusOK
	if !h.Ready() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleReload hot-swaps a freshly loaded engine (Config.Reload) under
// load: POST /admin/reload -> {"version": N}. In-flight batches finish
// on the old engine.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.cfg.Reload == nil {
		httpError(w, http.StatusNotImplemented, "no reload function configured (aptserve wires one when serving a checkpoint)")
		return
	}
	version, err := s.Reload()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{Version: version})
}

// statusFor maps service errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrCanceled):
		return statusClientClosedRequest
	case errors.Is(err, tensor.ErrShape):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
