package serve

import "time"

// Health states. The serving tier distinguishes liveness ("is the
// process worth keeping") from readiness ("should a load balancer send
// it traffic"); /healthz and /readyz map these states onto HTTP in
// http.go.
//
//	starting  warmup has not completed; accepting but cold
//	ok        full capacity, queue has headroom
//	degraded  workers lost or queue saturated; still serving
//	draining  Close has begun; rejects new work, finishes accepted work
//
// Queue saturation only degrades health after it has persisted for
// Config.SaturationGrace across successive Health observations — a
// momentary burst sheds load via ErrOverloaded without flipping the
// replica not-ready (see Config.SaturationGrace).

// HealthState is the coarse serving state.
type HealthState string

const (
	HealthStarting HealthState = "starting"
	HealthOK       HealthState = "ok"
	HealthDegraded HealthState = "degraded"
	HealthDraining HealthState = "draining"
)

// Health is a point-in-time view of the server's serving capacity.
type Health struct {
	State HealthState `json:"state"`
	// Reason explains a non-ok state.
	Reason string `json:"reason,omitempty"`
	// Workers is the configured worker count; LiveWorkers is how many
	// are currently alive (panic respawn keeps them equal except for
	// the instants between a panic and its respawn, and during drain).
	Workers     int `json:"workers"`
	LiveWorkers int `json:"live_workers"`
	// QueueLen/QueueCap expose queue pressure, in samples; a request that
	// would take QueueLen past QueueCap bounces with ErrOverloaded. Health
	// counts the queue as saturated from 90% of cap, but only reports
	// degraded once saturation has persisted for Config.SaturationGrace.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// Panics and ModelVersion mirror the Stats counters most relevant
	// to an operator reading a health probe.
	Panics       uint64 `json:"panics"`
	ModelVersion uint64 `json:"model_version"`
}

// Ready reports whether a load balancer should route traffic here: the
// server is warmed up, not draining, and not saturated.
func (h Health) Ready() bool { return h.State == HealthOK }

// Health computes the current serving state.
func (s *Server) Health() Health {
	h := Health{
		Workers:      s.cfg.Workers,
		LiveWorkers:  int(s.live.Load()),
		QueueLen:     int(s.queued.Load()),
		QueueCap:     s.cfg.QueueCap,
		Panics:       s.panics.Load(),
		ModelVersion: s.engine.Load().version,
	}
	switch {
	case s.isClosed():
		h.State = HealthDraining
		h.Reason = "close in progress; finishing accepted requests"
	case h.LiveWorkers < h.Workers:
		h.State = HealthDegraded
		h.Reason = "workers lost"
	case s.sustainedSaturation(h.QueueLen, h.QueueCap):
		h.State = HealthDegraded
		h.Reason = "queue saturated"
	case !s.ready.Load():
		h.State = HealthStarting
		h.Reason = "warming up"
	default:
		h.State = HealthOK
	}
	return h
}

// sustainedSaturation reports whether the queue has been saturated (at or
// above 90% of cap) for at least Config.SaturationGrace, as observed by
// successive Health calls: the first saturated observation starts the
// clock, any unsaturated observation resets it. Health probes are the
// sampler, so "persisted" means every probe in the grace window saw a
// saturated queue — exactly the hysteresis a load balancer needs to avoid
// ejecting every replica on one synchronized burst.
func (s *Server) sustainedSaturation(queueLen, queueCap int) bool {
	saturated := queueLen*10 >= queueCap*9
	s.satMu.Lock()
	defer s.satMu.Unlock()
	if !saturated {
		s.satSince = time.Time{}
		return false
	}
	if s.satSince.IsZero() {
		s.satSince = time.Now()
	}
	return time.Since(s.satSince) >= s.cfg.SaturationGrace
}
