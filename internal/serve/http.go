package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/tensor"
)

// HTTP surface: POST /classify, GET /healthz, GET /readyz, GET /stats,
// POST /admin/reload.
//
// /classify accepts one sample or a list. A list travels through the
// micro-batching queue in groups of up to MaxBatch samples, each of which
// rides one engine batch — its own, or one shared with concurrent clients:
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
	// maxFanout bounds the samples one multi-sample request may have
	// outstanding in the queue; remaining samples are submitted as earlier
	// ones complete.
	maxFanout = 64
	// maxDeadlineMs is the largest deadline_ms that is still a
	// time.Duration.
	maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)
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
	if int64(req.DeadlineMs) > maxDeadlineMs {
		// The Duration would wrap negative and the request silently run
		// with no deadline at all.
		httpError(w, http.StatusBadRequest, fmt.Sprintf("deadline_ms over %d", maxDeadlineMs))
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

// classifyMany cuts inputs into groups and submits them from the calling
// goroutine, looking ahead by at most maxFanout samples: it waits for the
// oldest outstanding group only when the next one would exceed that budget.
// The first error wins and abandons the rest — once one group bounces with
// ErrOverloaded the remaining ones are not submitted at all, and the ones
// already queued are dropped by the workers.
func (s *Server) classifyMany(ctx context.Context, inputs [][]float32) ([]int, error) {
	// A group must fit a batch, the queue and the look-ahead budget.
	per := min(s.cfg.MaxBatch, s.cfg.QueueCap, maxFanout)
	classes := make([]int, len(inputs))
	var (
		ring       [maxFanout]*group // outstanding groups ring[head:tail] (mod len), oldest first
		head, tail int
		next       int // first sample not yet submitted
	)
	fail := func(err error) ([]int, error) {
		for ; head < tail; head++ {
			g := ring[head%len(ring)]
			g.abandoned.Store(true)
			if !g.answered.Load() {
				s.canceled.Add(uint64(len(g.imgs)))
			}
		}
		return nil, err
	}
	for done := 0; done < len(inputs); { // samples done..next are outstanding
		for next < len(inputs) && next-done+min(per, len(inputs)-next) <= maxFanout {
			g := newGroup(ctx, inputs[next:min(next+per, len(inputs))])
			if err := s.submit(g); err != nil {
				return fail(err)
			}
			ring[tail%len(ring)] = g
			tail++
			next += len(g.imgs)
		}
		got, err := s.await(ring[head%len(ring)])
		head++
		if err != nil {
			return fail(err)
		}
		done += copy(classes[done:], got)
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
