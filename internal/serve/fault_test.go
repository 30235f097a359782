package serve

// Fault-injection harness: faultClassifier is a test double that injects
// engine panics, errors, and latency spikes on a deterministic schedule,
// and the chaos suite drives it (plus hot swaps and draining) under
// concurrent load with -race. The properties pinned here are the
// robustness contract of the serving tier: no caller ever hangs past its
// deadline, no goroutines leak, capacity self-heals after panics, and a
// swapped-in engine serves without dropping in-flight batches.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// errInjected is the scheduled engine error.
var errInjected = errors.New("injected engine error")

// faultClassifier answers every sample with its id, and misbehaves on a
// schedule: every panicEvery-th call panics, every errEvery-th call
// errors, every spikeEvery-th call sleeps an extra spike on top of the
// base delay. The schedules are atomics so a test can heal (or break)
// the engine mid-load. An optional gate holds every call until closed.
type faultClassifier struct {
	id    int
	delay time.Duration
	spike time.Duration
	gate  chan struct{}

	panicEvery atomic.Int64
	errEvery   atomic.Int64
	spikeEvery atomic.Int64

	calls   atomic.Int64
	samples atomic.Int64
}

func (f *faultClassifier) Classify(x *tensor.Tensor) ([]int, error) {
	c := f.calls.Add(1)
	f.samples.Add(int64(x.Dim(0)))
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if n := f.spikeEvery.Load(); n > 0 && c%n == 0 {
		time.Sleep(f.spike)
	}
	if n := f.panicEvery.Load(); n > 0 && c%n == 0 {
		panic(fmt.Sprintf("injected engine panic at call %d", c))
	}
	if n := f.errEvery.Load(); n > 0 && c%n == 0 {
		return nil, errInjected
	}
	out := make([]int, x.Dim(0))
	for i := range out {
		out[i] = f.id
	}
	return out, nil
}

// checkGoroutines fails the test if the goroutine count does not return
// to (near) the baseline within a grace period — the leak detector for
// the chaos suite.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// retryClassify retries transient rejections (a draining queue after a
// storm) for up to the grace period.
func retryClassify(t *testing.T, s *Server, img []float32, grace time.Duration) (int, error) {
	t.Helper()
	deadline := time.Now().Add(grace)
	for {
		class, err := s.Classify(img)
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			return class, err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosStorm drives concurrent deadline-bounded load into an engine
// that panics, errors, and stalls on schedule. Every call must return
// promptly with a sane outcome, the workers must self-heal, and after
// the engine is healed the server must serve cleanly again.
func TestChaosStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	fault := &faultClassifier{id: 7, delay: 100 * time.Microsecond, spike: 3 * time.Millisecond}
	fault.panicEvery.Store(3)
	fault.errEvery.Store(5)
	fault.spikeEvery.Store(11)
	s, err := New(Config{
		Engine: fault, InC: 1, InH: 2, InW: 2,
		Workers: 4, MaxBatch: 8, MaxDelay: 500 * time.Microsecond, QueueCap: 64,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const clients, perClient = 24, 20
	var wg sync.WaitGroup
	var unexpected atomic.Int64
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				class, err := s.ClassifyCtx(ctx, sample(1, 4))
				cancel()
				switch {
				case err == nil:
					if class != 7 {
						unexpected.Add(1)
					}
				case errors.Is(err, ErrEnginePanic),
					errors.Is(err, errInjected),
					errors.Is(err, ErrOverloaded),
					errors.Is(err, ErrDeadline),
					errors.Is(err, ErrCanceled):
					// expected storm outcomes
				default:
					t.Errorf("unexpected error: %v", err)
					unexpected.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d calls had unexpected outcomes", n)
	}

	st := s.Stats()
	if st.Panics == 0 {
		t.Error("no panics recorded despite injected panics")
	}
	if st.LiveWorkers != 4 {
		t.Errorf("live workers = %d, want 4 (respawn must conserve capacity)", st.LiveWorkers)
	}

	// Heal the engine: the same server must serve cleanly again.
	fault.panicEvery.Store(0)
	fault.errEvery.Store(0)
	fault.spikeEvery.Store(0)
	for i := 0; i < 50; i++ {
		if class, err := retryClassify(t, s, sample(1, 4), 2*time.Second); err != nil || class != 7 {
			t.Fatalf("post-storm Classify = %d, %v; want 7, nil", class, err)
		}
	}
	if h := s.Health(); h.State != HealthOK {
		t.Errorf("post-storm health = %s (%s), want ok", h.State, h.Reason)
	}
	s.Close()
	checkGoroutines(t, base)
}

// TestPanicStormNeverStrandsCaller pins the worst case: an engine that
// panics on every call. Every caller must get ErrEnginePanic instead of
// hanging, and capacity must be intact once the engine heals.
func TestPanicStormNeverStrandsCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	fault := &faultClassifier{id: 3}
	fault.panicEvery.Store(1)
	s, err := New(Config{
		Engine: fault, InC: 1, InH: 2, InW: 2,
		Workers: 2, MaxBatch: 4, MaxDelay: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 40; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := s.ClassifyCtx(ctx, sample(1, 4))
		cancel()
		if !errors.Is(err, ErrEnginePanic) {
			t.Fatalf("call %d: err = %v, want ErrEnginePanic", i, err)
		}
	}
	st := s.Stats()
	if st.Panics < 40 {
		t.Errorf("panics = %d, want >= 40", st.Panics)
	}
	if st.LiveWorkers != 2 {
		t.Errorf("live workers = %d, want 2", st.LiveWorkers)
	}
	fault.panicEvery.Store(0)
	if class, err := s.Classify(sample(1, 4)); err != nil || class != 3 {
		t.Errorf("healed Classify = %d, %v; want 3, nil", class, err)
	}
	s.Close()

	// A group held over because the open batch had no room for it must ride
	// the respawn: the panicking worker hands it to its successor.
	fault = &faultClassifier{id: 3, gate: make(chan struct{})}
	fault.panicEvery.Store(1)
	s, err = New(Config{Engine: fault, InC: 1, InH: 2, InW: 2, Workers: 1, MaxBatch: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	groups := heldOverScenario(t, s, fault)
	close(fault.gate) // call 1 panics; its successor gathers g1, holds g2 over, panics; g2's worker panics
	for i, g := range groups {
		if _, err := awaitWithin(s, g, 5*time.Second); !errors.Is(err, ErrEnginePanic) {
			t.Errorf("group %d: err = %v, want ErrEnginePanic", i, err)
		}
	}
	st = s.Stats()
	if st.Panics != 3 || st.Batches != 3 || st.Requests != 7 || st.Errored != 7 || st.LiveWorkers != 1 {
		t.Errorf("stats after three panicking batches of 1+3+3 samples: %+v", st)
	}
	s.Close()
	checkGoroutines(t, base)
}

// heldOverScenario wedges s's only worker inside the gated engine on a
// one-sample group, then queues two three-sample groups. With MaxBatch 4
// the worker that gathers the first must hold the second over. It returns
// all three groups, accepted and unanswered.
func heldOverScenario(t *testing.T, s *Server, fault *faultClassifier) []*group {
	t.Helper()
	three := [][]float32{sample(1, 4), sample(1, 4), sample(1, 4)}
	groups := []*group{
		newGroup(context.Background(), three[:1]),
		newGroup(context.Background(), three),
		newGroup(context.Background(), three),
	}
	for i, g := range groups {
		if err := s.submit(g); err != nil {
			t.Fatalf("submit group %d: %v", i, err)
		}
		if i > 0 {
			continue
		}
		for deadline := time.Now().Add(5 * time.Second); fault.calls.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("worker never entered the engine")
			}
		}
	}
	return groups
}

// awaitWithin is await with a bound, so a stranded group fails the test
// instead of hanging it.
func awaitWithin(s *Server, g *group, d time.Duration) ([]int, error) {
	type result struct {
		classes []int
		err     error
	}
	done := make(chan result, 1)
	go func() {
		classes, err := s.await(g)
		done <- result{classes, err}
	}()
	select {
	case r := <-done:
		return r.classes, r.err
	case <-time.After(d):
		return nil, errors.New("group never answered")
	}
}

// TestHotSwapUnderLoad swaps the engine while concurrent load is in
// flight: no request may fail or see a class neither engine produces,
// and once the load settles new requests are answered by the new engine.
func TestHotSwapUnderLoad(t *testing.T) {
	oldEng := &faultClassifier{id: 1, delay: 200 * time.Microsecond}
	newEng := &faultClassifier{id: 2}
	s, err := New(Config{
		Engine: oldEng, InC: 1, InH: 2, InW: 2,
		Workers: 2, MaxBatch: 8, MaxDelay: 200 * time.Microsecond, QueueCap: 256,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var bad atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				class, err := s.Classify(sample(1, 4))
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil || (class != 1 && class != 2) {
					bad.Add(1)
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	version, err := s.Swap(newEng)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if version != 2 {
		t.Errorf("Swap version = %d, want 2", version)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d requests failed or saw an impossible class during the swap", n)
	}
	if class, err := s.Classify(sample(1, 4)); err != nil || class != 2 {
		t.Errorf("post-swap Classify = %d, %v; want 2 (new engine)", class, err)
	}
	st := s.Stats()
	if st.Swaps != 1 || st.ModelVersion != 2 {
		t.Errorf("stats swaps/version = %d/%d, want 1/2", st.Swaps, st.ModelVersion)
	}
	if newEng.calls.Load() == 0 {
		t.Error("new engine never ran")
	}
}

// TestDeadlineLazyDrop pins that expired requests are dropped before
// they reach the engine: abandoned work never pays for a GEMM.
func TestDeadlineLazyDrop(t *testing.T) {
	gate := make(chan struct{})
	stub := &stubClassifier{gate: gate, entered: make(chan struct{}, 1)}
	s, _ := newTestServer(t, Config{
		Engine: stub, InC: 1, InH: 2, InW: 2,
		Workers: 1, MaxBatch: 4, QueueCap: 8, MaxDelay: time.Millisecond,
	})
	// Occupy the only worker inside the gated engine.
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Classify(sample(1, 4))
		firstDone <- err
	}()
	select {
	case <-stub.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first request")
	}
	// Queue four requests with short deadlines; they expire while queued.
	const expiring = 4
	errs := make(chan error, expiring)
	for i := 0; i < expiring; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err := s.ClassifyCtx(ctx, sample(1, 4))
			errs <- err
		}()
	}
	for i := 0; i < expiring; i++ {
		if err := <-errs; !errors.Is(err, ErrDeadline) {
			t.Errorf("expired request %d: err = %v, want ErrDeadline", i, err)
		}
	}
	close(gate) // release the engine
	if err := <-firstDone; err != nil {
		t.Fatalf("first request: %v", err)
	}
	// A fresh request flushes the worker past the expired entries.
	if class, err := s.Classify(sample(1, 4)); err != nil || class != 1 {
		t.Fatalf("post-drop Classify = %d, %v; want 1, nil", class, err)
	}
	if got := stub.samplesSeen(); got != 2 {
		t.Errorf("engine saw %d samples, want 2 (expired work must never reach it)", got)
	}
	st := s.Stats()
	if st.Dropped != expiring {
		t.Errorf("dropped = %d, want %d", st.Dropped, expiring)
	}
	if st.Canceled != expiring {
		t.Errorf("canceled = %d, want %d", st.Canceled, expiring)
	}
}

// TestClassifyCtxCancelPrompt pins that cancellation releases the caller
// immediately even while its request is stuck behind a wedged engine.
func TestClassifyCtxCancelPrompt(t *testing.T) {
	gate := make(chan struct{})
	stub := &stubClassifier{gate: gate, entered: make(chan struct{}, 1)}
	s, _ := newTestServer(t, Config{
		Engine: stub, InC: 1, InH: 2, InW: 2,
		Workers: 1, MaxBatch: 1, QueueCap: 4, MaxDelay: time.Millisecond,
	})
	go s.Classify(sample(1, 4)) // occupy the worker
	select {
	case <-stub.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never entered the engine")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.ClassifyCtx(ctx, sample(1, 4))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it queue
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("err = %v, want ErrCanceled", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("cancellation took %v, want immediate", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled caller still hanging")
	}
	close(gate)
}

// TestCloseUnderLoadAnswersEveryAccepted pins graceful drain: Close
// during sustained concurrent load answers every accepted request — the
// only outcomes are a result, ErrOverloaded, or ErrClosed, and no
// goroutine outlives the drain.
func TestCloseUnderLoadAnswersEveryAccepted(t *testing.T) {
	base := runtime.NumGoroutine()
	fault := &faultClassifier{id: 5, delay: 100 * time.Microsecond}
	s, err := New(Config{
		Engine: fault, InC: 1, InH: 2, InW: 2,
		Workers: 2, MaxBatch: 8, MaxDelay: 200 * time.Microsecond, QueueCap: 32,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	var badOutcome atomic.Int64
	three := [][]float32{sample(1, 4), sample(1, 4), sample(1, 4)}
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Every other client sends three samples at a time: with
				// MaxBatch 8 a third such group never fits, so groups are
				// being held over when Close lands.
				classes, err := []int{0}, error(nil)
				if c%2 == 0 {
					classes[0], err = s.Classify(sample(1, 4))
				} else {
					classes, err = s.classifyMany(context.Background(), three)
				}
				switch {
				case err == nil:
					for _, class := range classes {
						if class != 5 {
							badOutcome.Add(1)
						}
					}
				case errors.Is(err, ErrOverloaded):
					// shed; try again
				case errors.Is(err, ErrClosed):
					return
				default:
					badOutcome.Add(1)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.Close()
	wg.Wait()
	if n := badOutcome.Load(); n != 0 {
		t.Errorf("%d calls saw a wrong class or unexpected error during drain", n)
	}

	// A held-over group is accepted work like any other: Close answers it.
	fault = &faultClassifier{id: 5, gate: make(chan struct{})}
	s, err = New(Config{Engine: fault, InC: 1, InH: 2, InW: 2, Workers: 1, MaxBatch: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	groups := heldOverScenario(t, s, fault)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitState(t, s, HealthDraining)
	close(fault.gate)
	for i, g := range groups {
		classes, err := awaitWithin(s, g, 5*time.Second)
		if err != nil || len(classes) != len(g.imgs) || classes[0] != 5 {
			t.Errorf("group %d after Close: %v, %v; want %d classes of 5", i, classes, err, len(g.imgs))
		}
	}
	<-closed
	if st := s.Stats(); st.Batches != 3 || st.Requests != 7 {
		t.Errorf("drain ran %d samples in %d batches, want 7 in 3 (the held-over group whole, in its own)", st.Requests, st.Batches)
	}
	checkGoroutines(t, base)
}

// mismatchedStub reports a different input geometry than the server's.
type mismatchedStub struct{ stubClassifier }

func (*mismatchedStub) InputShape() (c, h, w int) { return 3, 2, 2 }

func TestSwapValidates(t *testing.T) {
	s, _ := newTestServer(t, Config{Engine: &shapedStub{}, MaxDelay: time.Millisecond})
	if _, err := s.Swap(nil); err == nil {
		t.Error("Swap(nil) did not error")
	}
	if _, err := s.Swap(&mismatchedStub{}); err == nil {
		t.Error("Swap with mismatched geometry did not error")
	}
	if v, err := s.Swap(&shapedStub{}); err != nil || v != 2 {
		t.Errorf("Swap = %d, %v; want 2, nil", v, err)
	}
}

// TestHealthStates walks the state machine: starting (warmup pending) →
// ok → degraded (queue saturated) → draining, with the HTTP probes
// agreeing at each step.
func TestHealthStates(t *testing.T) {
	// starting: a gated engine holds warmup open.
	warmGate := make(chan struct{})
	warmStub := &stubClassifier{gate: warmGate}
	s1, err := New(Config{
		Engine: warmStub, InC: 1, InH: 2, InW: 2, Warmup: true, MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	if h := s1.Health(); h.State != HealthStarting {
		t.Errorf("pre-warmup health = %s, want starting", h.State)
	}
	if code := getStatus(t, ts1.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while starting = %d, want 503", code)
	}
	if code := getStatus(t, ts1.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz while starting = %d, want 200", code)
	}
	close(warmGate)
	waitState(t, s1, HealthOK)
	if code := getStatus(t, ts1.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz when ok = %d, want 200", code)
	}
	ts1.Close()
	s1.Close()
	if h := s1.Health(); h.State != HealthDraining {
		t.Errorf("post-close health = %s, want draining", h.State)
	}

	// degraded: the only worker is wedged and the queue is full.
	gate := make(chan struct{})
	stub := &stubClassifier{gate: gate, entered: make(chan struct{}, 1)}
	s2, _ := newTestServer(t, Config{
		Engine: stub, InC: 1, InH: 2, InW: 2,
		Workers: 1, MaxBatch: 1, QueueCap: 1, MaxDelay: time.Millisecond,
		SaturationGrace: 5 * time.Millisecond,
	})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	go s2.Classify(sample(1, 4))
	select {
	case <-stub.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never entered the engine")
	}
	go s2.Classify(sample(1, 4)) // fills the one-slot queue
	deadline := time.After(5 * time.Second)
	for s2.queued.Load() != 1 {
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// The first saturated observation must NOT degrade health — the grace
	// window keeps a momentary burst from flipping the replica not-ready.
	if h := s2.Health(); h.State != HealthOK {
		t.Errorf("instantaneously saturated health = %s (%s), want ok (inside grace window)", h.State, h.Reason)
	}
	// Saturation that persists past the grace window does degrade.
	waitState(t, s2, HealthDegraded)
	if h := s2.Health(); h.State != HealthDegraded || h.Reason != "queue saturated" {
		t.Errorf("sustained saturation health = %s (%s), want degraded (queue saturated)", h.State, h.Reason)
	}
	if code := getStatus(t, ts2.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz when saturated = %d, want 503", code)
	}
	if code := getStatus(t, ts2.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz when saturated = %d, want 200 (alive)", code)
	}
	close(gate)
	waitState(t, s2, HealthOK)
}

// TestAdminReload exercises the HTTP swap path: each POST /admin/reload
// loads a fresh engine and bumps the version; afterwards requests are
// served by the new engine.
func TestAdminReload(t *testing.T) {
	next := atomic.Int64{}
	next.Store(9) // reloaded engines answer 10, 11, ...
	cfg := Config{
		Engine: &faultClassifier{id: 1}, InC: 1, InH: 2, InW: 2, MaxDelay: time.Millisecond,
		Reload: func() (Classifier, error) {
			return &faultClassifier{id: int(next.Add(1))}, nil
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/admin/reload"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /admin/reload = %d, want 405", resp.StatusCode)
		}
	}
	for want := uint64(2); want <= 3; want++ {
		resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var got reloadResponse
		if err := jsonDecode(resp, &got); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || got.Version != want {
			t.Errorf("reload -> status %d version %d, want 200 version %d", resp.StatusCode, got.Version, want)
		}
	}
	if class, err := s.Classify(sample(1, 4)); err != nil || class != 11 {
		t.Errorf("post-reload Classify = %d, %v; want 11 (second reloaded engine)", class, err)
	}

	// Without a reload function the endpoint is explicit about it.
	s2, _ := newTestServer(t, Config{MaxDelay: time.Millisecond})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err := http.Post(ts2.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("reload without function = %d, want 501", resp.StatusCode)
	}
}

// TestClassifyManyFailFast pins the bounded look-ahead: a huge multi-sample
// request is submitted from the calling goroutine — classifyMany starts
// none — and once one sample is rejected the rest are not submitted.
func TestClassifyManyFailFast(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	stub := &stubClassifier{gate: gate, entered: make(chan struct{}, 1)}
	s, _ := newTestServer(t, Config{
		Engine: stub, InC: 1, InH: 2, InW: 2,
		Workers: 1, MaxBatch: 1, QueueCap: 1, MaxDelay: time.Millisecond,
	})
	base := runtime.NumGoroutine()
	inputs := make([][]float32, maxInputsPerRequest)
	for i := range inputs {
		inputs[i] = sample(1, 4)
	}
	peak := 0
	stop := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	_, err := s.classifyMany(context.Background(), inputs)
	close(stop)
	<-monDone
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("classifyMany on a wedged server = %v, want ErrOverloaded", err)
	}
	if stub.samplesSeen() > 2 {
		t.Errorf("engine saw %d samples, want <= 2 (fail fast must stop submission)", stub.samplesSeen())
	}
	if peak > base+1 {
		t.Errorf("goroutines peaked at %d over a baseline of %d plus this test's monitor: classifyMany started some",
			peak, base)
	}
}

// TestClassifyManyExpiredCtxReportsError pins the regression where a
// context expiry observed while no fan-out worker was inside ClassifyCtx
// skipped the remaining samples without recording any error — classifyMany
// returned nil and the handler answered 200 OK with zero-valued classes
// for samples that were never classified.
func TestClassifyManyExpiredCtxReportsError(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxDelay: time.Millisecond})
	inputs := [][]float32{sample(1, 4), sample(1, 4), sample(1, 4)}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	classes, err := s.classifyMany(ctx, inputs)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("classifyMany with expired ctx = %v, %v; want nil classes and ErrDeadline", classes, err)
	}
}

// TestHTTPDeadline pins the HTTP deadline knob end to end: a request
// whose deadline_ms expires behind a wedged engine answers 504.
func TestHTTPDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	stub := &stubClassifier{gate: gate, entered: make(chan struct{}, 1)}
	s, _ := newTestServer(t, Config{
		Engine: stub, InC: 1, InH: 2, InW: 2,
		Workers: 1, MaxBatch: 1, QueueCap: 4, MaxDelay: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	go s.Classify(sample(1, 4)) // wedge the worker
	select {
	case <-stub.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never entered the engine")
	}
	resp, err := http.Post(ts.URL+"/classify", "application/json",
		bytes.NewBufferString(`{"input": [1,0,0,0], "deadline_ms": 25}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("expired request status = %d, want 504", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/classify", "application/json",
		bytes.NewBufferString(`{"input": [1,0,0,0], "deadline_ms": -3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative deadline status = %d, want 400", resp.StatusCode)
	}
}

// TestMethodChecks pins 405 on the read-only endpoints, consistent with
// /classify's method check.
func TestMethodChecks(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxDelay: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/readyz", "/stats"} {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// getStatus fetches a URL and returns the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// jsonDecode decodes a response body and closes it.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitState polls until the server reaches the wanted health state.
func waitState(t *testing.T, s *Server, want HealthState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := s.Health(); h.State == want {
			return
		}
		if time.Now().After(deadline) {
			h := s.Health()
			t.Fatalf("health stuck at %s (%s), want %s", h.State, h.Reason, want)
		}
		time.Sleep(time.Millisecond)
	}
}
