package serve

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestReloadRetriesTransientFailure: the failure a checkpoint watcher
// actually hits is a file caught mid-replace, which heals on its own —
// Reload must retry through it and swap once the read succeeds.
func TestReloadRetriesTransientFailure(t *testing.T) {
	calls := 0
	s, _ := newTestServer(t, Config{
		Engine: &stubClassifier{},
		InC:    1, InH: 2, InW: 2,
		Reload: func() (Classifier, error) {
			calls++
			if calls < 3 {
				return nil, fmt.Errorf("torn write")
			}
			return &stubClassifier{}, nil
		},
		ReloadRetries: 3,
		ReloadBackoff: time.Millisecond,
	})
	v, err := s.Reload()
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if v != 2 {
		t.Errorf("model version = %d, want 2", v)
	}
	if calls != 3 {
		t.Errorf("reload function called %d times, want 3", calls)
	}
}

func TestReloadExhaustsRetries(t *testing.T) {
	calls := 0
	s, _ := newTestServer(t, Config{
		Engine: &stubClassifier{},
		InC:    1, InH: 2, InW: 2,
		Reload: func() (Classifier, error) {
			calls++
			return nil, fmt.Errorf("checkpoint missing")
		},
		ReloadRetries: 2,
		ReloadBackoff: time.Millisecond,
	})
	_, err := s.Reload()
	if err == nil || !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("err = %v, want an error naming 3 attempts", err)
	}
	if calls != 3 {
		t.Errorf("reload function called %d times, want 3", calls)
	}
}

// TestReloadSwapErrorNotRetried: a geometry mismatch is permanent — a
// wrong model never fixes itself, so Reload must fail on the first
// attempt rather than burn the retry budget.
func TestReloadSwapErrorNotRetried(t *testing.T) {
	calls := 0
	s, _ := newTestServer(t, Config{
		Engine: &stubClassifier{},
		InC:    3, InH: 8, InW: 8,
		Reload: func() (Classifier, error) {
			calls++
			return &shapedStub{}, nil // reports (1, 2, 2)
		},
		ReloadRetries: 3,
		ReloadBackoff: time.Millisecond,
	})
	_, err := s.Reload()
	if err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("err = %v, want a geometry error", err)
	}
	if calls != 1 {
		t.Errorf("reload function called %d times, want 1 (Swap errors are permanent)", calls)
	}
}

// TestReloadSerialized: SIGHUP, POST /admin/reload and the -watch poller
// may reload at once. While one Reload is inside the reload function a
// second must not enter it, and the engine served at the end must be the
// one the later reload produced, under the higher version.
func TestReloadSerialized(t *testing.T) {
	var calls atomic.Int32
	entered, gate := make(chan struct{}), make(chan struct{})
	engines := []*stubClassifier{{}, {}}
	s, _ := newTestServer(t, Config{
		Engine: &stubClassifier{},
		InC:    1, InH: 2, InW: 2,
		Reload: func() (Classifier, error) {
			n := calls.Add(1)
			if n == 1 {
				close(entered)
				<-gate
			}
			return engines[n-1], nil
		},
	})
	versions := make(chan uint64, 2)
	reload := func() {
		v, err := s.Reload()
		if err != nil {
			t.Errorf("Reload: %v", err)
		}
		versions <- v
	}
	go reload()
	<-entered
	go reload()
	time.Sleep(50 * time.Millisecond) // time for the second to (wrongly) enter
	if n := calls.Load(); n != 1 {
		t.Errorf("%d reload functions running at once, want 1", n)
	}
	close(gate)
	a, b := <-versions, <-versions
	if min(a, b) != 2 || max(a, b) != 3 {
		t.Errorf("reload versions %d and %d, want 2 and 3", a, b)
	}
	if box := s.engine.Load(); box.c != engines[1] || box.version != 3 {
		t.Errorf("served engine is not the later reload's (version %d)", box.version)
	}
}
