package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// stubClassifier classifies each sample by the sign of its first value —
// a deterministic per-sample rule, so batching must not change results.
// An optional gate blocks every Classify call until released, and an
// optional delay simulates engine latency.
type stubClassifier struct {
	gate    chan struct{}
	entered chan struct{} // signalled on every Classify entry
	delay   time.Duration
	mu      sync.Mutex
	batches []int // batch sizes seen
}

func (c *stubClassifier) Classify(x *tensor.Tensor) ([]int, error) {
	if c.entered != nil {
		select {
		case c.entered <- struct{}{}:
		default:
		}
	}
	if c.gate != nil {
		<-c.gate
	}
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	n := x.Dim(0)
	per := x.Len() / n
	c.mu.Lock()
	c.batches = append(c.batches, n)
	c.mu.Unlock()
	out := make([]int, n)
	for i := 0; i < n; i++ {
		if x.Data()[i*per] > 0 {
			out[i] = 1
		}
	}
	return out, nil
}

func (c *stubClassifier) batchSizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.batches...)
}

// samplesSeen is the total number of samples the engine has classified —
// the lazy-drop tests pin that expired work never inflates it.
func (c *stubClassifier) samplesSeen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.batches {
		total += n
	}
	return total
}

func sample(v float32, n int) []float32 {
	s := make([]float32, n)
	s[0] = v
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *stubClassifier) {
	t.Helper()
	stub, _ := cfg.Engine.(*stubClassifier)
	if cfg.Engine == nil {
		stub = &stubClassifier{}
		cfg.Engine = stub
	}
	if cfg.InC == 0 {
		cfg.InC, cfg.InH, cfg.InW = 1, 2, 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s, stub
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing engine did not error")
	}
	if _, err := New(Config{Engine: &stubClassifier{}}); err == nil {
		t.Error("missing geometry did not error")
	}
	if _, err := New(Config{Engine: &stubClassifier{}, InC: 1, InH: 2, InW: 2, MaxDelay: -time.Second}); err == nil {
		t.Error("negative MaxDelay did not error")
	}
	if _, err := New(Config{Engine: &stubClassifier{}, InC: 1, InH: 2, InW: 2, SaturationGrace: -time.Second}); err == nil {
		t.Error("negative SaturationGrace did not error")
	}
}

// shapedStub is a stubClassifier that also reports its input geometry,
// like infer.Engine.
type shapedStub struct{ stubClassifier }

func (*shapedStub) InputShape() (c, h, w int) { return 1, 2, 2 }

func TestGeometryDefaultsFromEngine(t *testing.T) {
	s, err := New(Config{Engine: &shapedStub{}, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatalf("New without explicit geometry: %v", err)
	}
	defer s.Close()
	if got, err := s.Classify(sample(1, 4)); err != nil || got != 1 {
		t.Errorf("Classify = %d, %v; want 1", got, err)
	}
	if _, err := s.Classify(sample(1, 5)); err == nil {
		t.Error("wrong-length sample accepted: geometry not taken from engine")
	}
}

func TestClassifyRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if got, err := s.Classify(sample(1, 4)); err != nil || got != 1 {
		t.Errorf("Classify(+) = %d, %v; want 1", got, err)
	}
	if got, err := s.Classify(sample(-1, 4)); err != nil || got != 0 {
		t.Errorf("Classify(-) = %d, %v; want 0", got, err)
	}
	if _, err := s.Classify(sample(1, 3)); !errors.Is(err, tensor.ErrShape) {
		t.Errorf("wrong sample length error = %v", err)
	}
}

// Concurrent clients must coalesce into shared batches (fewer engine
// calls than requests) without changing any result.
func TestMicroBatchingCoalesces(t *testing.T) {
	stub := &stubClassifier{delay: 2 * time.Millisecond}
	s, _ := newTestServer(t, Config{
		Engine: stub, InC: 1, InH: 2, InW: 2,
		MaxBatch: 16, MaxDelay: 20 * time.Millisecond, Workers: 1,
	})
	const clients = 64
	var wg sync.WaitGroup
	var bad atomic32
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		i := i
		go func() {
			defer wg.Done()
			want := i % 2
			v := float32(1)
			if want == 0 {
				v = -1
			}
			got, err := s.Classify(sample(v, 4))
			if err != nil || got != want {
				bad.add(1)
			}
		}()
	}
	wg.Wait()
	if n := bad.load(); n != 0 {
		t.Errorf("%d clients got wrong answers", n)
	}
	st := s.Stats()
	if st.Requests != clients {
		t.Errorf("requests = %d, want %d", st.Requests, clients)
	}
	if st.Batches >= clients {
		t.Errorf("no batching: %d batches for %d requests", st.Batches, clients)
	}
	if st.MeanBatch <= 1 {
		t.Errorf("mean batch %.2f, want > 1", st.MeanBatch)
	}
	for _, n := range stub.batchSizes() {
		if n > 16 {
			t.Errorf("batch of %d exceeds MaxBatch", n)
		}
	}
	if st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Errorf("bad latency quantiles: p50=%v p99=%v", st.P50Ms, st.P99Ms)
	}
}

// A full queue must reject immediately with ErrOverloaded, and the count
// must show up in stats.
func TestBackpressureRejectsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	stub := &stubClassifier{gate: gate, entered: make(chan struct{}, 1)}
	s, _ := newTestServer(t, Config{
		Engine: stub, InC: 1, InH: 2, InW: 2,
		MaxBatch: 1, QueueCap: 1, Workers: 1, MaxDelay: time.Millisecond,
	})
	// First request occupies the worker (gated inside the engine).
	first := make(chan error, 1)
	go func() {
		_, err := s.Classify(sample(1, 4))
		first <- err
	}()
	select {
	case <-stub.entered: // worker is inside the engine; queue is empty
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first request")
	}
	// Second request fills the one-slot queue.
	second := make(chan error, 1)
	go func() {
		_, err := s.Classify(sample(1, 4))
		second <- err
	}()
	deadline := time.After(5 * time.Second)
	for len(s.queue) != 1 {
		select {
		case <-deadline:
			t.Fatal("second request never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// Third request must bounce immediately.
	if _, err := s.Classify(sample(1, 4)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("third Classify = %v, want ErrOverloaded", err)
	}
	close(gate) // release the engine (closed gate passes all later batches)
	if err := <-first; err != nil {
		t.Errorf("first request failed: %v", err)
	}
	if err := <-second; err != nil {
		t.Errorf("second request failed: %v", err)
	}
	if s.Stats().Rejected == 0 {
		t.Error("rejected counter is zero")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxDelay: time.Millisecond})
	if _, err := s.Classify(sample(1, 4)); err != nil {
		t.Fatalf("Classify before close: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Classify(sample(1, 4)); !errors.Is(err, ErrClosed) {
		t.Errorf("Classify after close = %v, want ErrClosed", err)
	}
}

func TestHTTPClassify(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxDelay: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp, m
	}

	resp, m := post(`{"input": [1, 0, 0, 0]}`)
	if resp.StatusCode != http.StatusOK || m["class"] != float64(1) {
		t.Errorf("single classify: status %d, body %v", resp.StatusCode, m)
	}
	resp, m = post(`{"inputs": [[1,0,0,0], [-1,0,0,0], [1,0,0,0]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("multi classify: status %d, body %v", resp.StatusCode, m)
	}
	if cs, ok := m["classes"].([]any); !ok || len(cs) != 3 || cs[0] != float64(1) || cs[1] != float64(0) {
		t.Errorf("multi classify body %v", m)
	}
	resp, m = post(`{"input": [1, 2]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short sample: status %d, body %v", resp.StatusCode, m)
	}
	resp, _ = post(`{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: status %d", resp.StatusCode)
	}
	resp, _ = post(`{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty payload: status %d", resp.StatusCode)
	}
	// An empty sample list is a bad request, not 200 {} — whether the body
	// took the single-pass decoder or (unknown field) encoding/json.
	for _, body := range []string{`{"inputs": []}`, `{"inputs": [], "note": "fallback"}`} {
		resp, m = post(body)
		if resp.StatusCode != http.StatusBadRequest || m["error"] != `empty "inputs"` {
			t.Errorf("%s: status %d, body %v", body, resp.StatusCode, m)
		}
	}
	// Bytes after the object make the body bad JSON.
	resp, m = post(`{"input": [1, 0, 0, 0]} {"input": [1, 0, 0, 0]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing bytes: status %d, body %v", resp.StatusCode, m)
	}
	// Over-long sample lists are rejected at admission, before queueing.
	var big bytes.Buffer
	big.WriteString(`{"inputs": [`)
	for i := 0; i <= maxInputsPerRequest; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteString(`[1,0,0,0]`)
	}
	big.WriteString(`]}`)
	resp, m = post(big.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized inputs list: status %d, body %v", resp.StatusCode, m)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %v", hresp, err)
	}
	if hresp != nil {
		hresp.Body.Close()
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Requests < 4 {
		t.Errorf("stats requests = %d, want >= 4", st.Requests)
	}
	// Nine POSTs above; four of them ({not json, the unknown field, the
	// trailing bytes, 1025 rows) are outside the single-pass grammar.
	if st.HTTPRequests != 9 || st.DecodeFallbacks != 4 || st.DecodeBytes == 0 || st.DecodeNs == 0 {
		t.Errorf("ingress stats = %d requests, %d fallbacks, %d bytes, %d ns; want 9, 4, >0, >0",
			st.HTTPRequests, st.DecodeFallbacks, st.DecodeBytes, st.DecodeNs)
	}
}

func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrOverloaded, http.StatusServiceUnavailable},
		{ErrClosed, http.StatusServiceUnavailable},
		{ErrDeadline, http.StatusGatewayTimeout},
		{ErrCanceled, statusClientClosedRequest},
		{ErrEnginePanic, http.StatusInternalServerError},
		{tensor.ErrShape, http.StatusBadRequest},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// atomic32 is a tiny test counter.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
