package serve

import (
	"fmt"
	"math/rand"
	"time"
)

// Hot model swap. The engine lives behind an atomic pointer that workers
// read once per batch, so replacing it is wait-free: in-flight batches
// finish on the engine they started with while new batches pick up the
// replacement. This is safe because a compiled infer.Engine is immutable
// after Compile — its packed weight panels are shared read-only across
// concurrent Forwards (ownership rules in PERF.md) — so the old engine
// stays fully functional until the last batch referencing it returns and
// the GC collects it. No locks, no drain, no dropped requests.

// engineBox pairs a Classifier with its swap version. Version 1 is the
// engine the server was constructed with; every successful Swap
// increments it.
type engineBox struct {
	c       Classifier
	version uint64
}

// Swap atomically replaces the serving engine and returns the new model
// version. The replacement must classify the same input geometry: when
// it reports an InputShape (infer.Engine does), the shape is validated
// against the server's; a mismatch leaves the current engine in place.
// In-flight batches finish on the old engine.
func (s *Server) Swap(c Classifier) (uint64, error) {
	if c == nil {
		return 0, fmt.Errorf("serve: Swap with nil engine")
	}
	if shaped, ok := c.(interface{ InputShape() (c, h, w int) }); ok {
		ic, ih, iw := shaped.InputShape()
		if ic != s.cfg.InC || ih != s.cfg.InH || iw != s.cfg.InW {
			return 0, fmt.Errorf("serve: Swap engine geometry (%d,%d,%d) does not match server (%d,%d,%d)",
				ic, ih, iw, s.cfg.InC, s.cfg.InH, s.cfg.InW)
		}
	}
	s.swapMu.Lock()
	box := &engineBox{c: c, version: s.engine.Load().version + 1}
	s.engine.Store(box)
	s.swapMu.Unlock()
	s.swaps.Add(1)
	return box.version, nil
}

// Reload produces a fresh engine via Config.Reload (re-reading a
// checkpoint, recompiling — whatever the operator wired up) and swaps it
// in. It backs POST /admin/reload, aptserve's SIGHUP handler, and the
// -watch checkpoint poller. A failing reload function is retried up to
// Config.ReloadRetries times with jittered backoff — the failure a
// watcher actually hits is a checkpoint caught mid-replace, which heals
// as soon as the publisher's rename lands — while Swap errors (geometry
// mismatch) are reported immediately: a wrong model never fixes itself.
// Reloads are serialized: a second caller waits until the first has
// swapped, so the engine served last is the one the last reload produced,
// and the reload function never runs twice at once.
func (s *Server) Reload() (uint64, error) {
	if s.cfg.Reload == nil {
		return 0, fmt.Errorf("serve: no reload function configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	backoff := s.cfg.ReloadBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt <= s.cfg.ReloadRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff/2)+1)))
		}
		c, err := s.cfg.Reload()
		if err != nil {
			lastErr = err
			continue
		}
		return s.Swap(c)
	}
	return 0, fmt.Errorf("serve: reload (%d attempts): %w", s.cfg.ReloadRetries+1, lastErr)
}
