package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
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
	for s.queued.Load() != 1 {
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

// TestBatchClosesWhenQueueRunsDry: a lone request does not wait for company.
// MaxDelay is only an upper bound; the batch runs once the queue is dry.
func TestBatchClosesWhenQueueRunsDry(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxDelay: 5 * time.Second})
	start := time.Now()
	if got, err := s.Classify(sample(1, 4)); err != nil || got != 1 {
		t.Fatalf("Classify = %d, %v; want 1", got, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("a lone Classify took %v against a 5 s MaxDelay: the batch waited to fill", d)
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchesDry != 1 || st.BatchesFull != 0 || st.BatchesTimeout != 0 {
		t.Errorf("batches = %d (full %d, dry %d, timeout %d), want one dry batch",
			st.Batches, st.BatchesFull, st.BatchesDry, st.BatchesTimeout)
	}
}

// TestMaxDelayBoundsGather: MaxDelay still ends a gather that arrivals keep
// alive. With a bound of one nanosecond any arrival that lands during a
// yield closes the batch, and the stats say why.
func TestMaxDelayBoundsGather(t *testing.T) {
	s, stub := newTestServer(t, Config{
		Engine: &stubClassifier{delay: 200 * time.Microsecond}, InC: 1, InH: 2, InW: 2,
		Workers: 1, MaxBatch: 64, MaxDelay: time.Nanosecond,
	})
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Classify(sample(1, 4)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.BatchesTimeout == 0 {
		t.Errorf("no batch closed on MaxDelay (full %d, dry %d) although callers re-enqueue during every yield",
			st.BatchesFull, st.BatchesDry)
	}
	if sum := st.BatchesFull + st.BatchesDry + st.BatchesTimeout; sum != st.Batches || int(st.Batches) != len(stub.batchSizes()) {
		t.Errorf("batches = %d, full+dry+timeout = %d, engine calls = %d; want all equal", st.Batches, sum, len(stub.batchSizes()))
	}
}

// postInputs sends n samples as one POST through the handler, sample i
// positive when i%3 == 0, and checks the classes come back in that order.
func postInputs(t *testing.T, s *Server, n int) {
	t.Helper()
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = sample(-1, 4)
		if i%3 == 0 {
			rows[i][0] = 1
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify",
		bytes.NewReader(mustMarshal(t, classifyRequest{Inputs: rows}))))
	var got classifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK || len(got.Classes) != n {
		t.Fatalf("%d-sample POST: status %d, body %s (%v)", n, rec.Code, rec.Body, err)
	}
	for i, c := range got.Classes {
		if (c == 1) != (i%3 == 0) {
			t.Errorf("%d-sample POST: class[%d] = %d, out of request order", n, i, c)
		}
	}
}

// TestGroupRidesOneBatch: the samples of one POST travel as one queue entry,
// so two idle workers cannot split them; a POST over MaxBatch is cut into
// groups that each ride whole.
func TestGroupRidesOneBatch(t *testing.T) {
	s, stub := newTestServer(t, Config{Workers: 2, MaxBatch: 32, MaxDelay: 5 * time.Second})
	postInputs(t, s, 16)
	if got := stub.batchSizes(); len(got) != 1 || got[0] != 16 {
		t.Errorf("16-sample POST ran as batches %v, want [16]", got)
	}
	if st := s.Stats(); st.Requests != 16 || st.Batches != 1 {
		t.Errorf("stats: %d requests in %d batches, want 16 in 1", st.Requests, st.Batches)
	}

	s, stub = newTestServer(t, Config{Workers: 2, MaxBatch: 16, MaxDelay: 5 * time.Second})
	postInputs(t, s, 40)
	total := 0
	for _, n := range stub.batchSizes() {
		if n > 16 {
			t.Errorf("batch of %d exceeds MaxBatch 16", n)
		}
		total += n
	}
	if total != 40 {
		t.Errorf("40-sample POST ran as batches %v, want them to sum to 40", stub.batchSizes())
	}
	if st := s.Stats(); st.Batches != st.BatchesFull+st.BatchesDry+st.BatchesTimeout || st.BatchesTimeout != 0 {
		t.Errorf("batches %d != full %d + dry %d + timeout %d (want timeout 0)",
			st.Batches, st.BatchesFull, st.BatchesDry, st.BatchesTimeout)
	}
}

// TestQueueCapCountsSamples: QueueCap, Health.QueueLen and the rejected
// counter are in samples, however few entries carry them.
func TestQueueCapCountsSamples(t *testing.T) {
	gate := make(chan struct{})
	stub := &stubClassifier{gate: gate, entered: make(chan struct{}, 1)}
	s, _ := newTestServer(t, Config{
		Engine: stub, InC: 1, InH: 2, InW: 2,
		Workers: 1, MaxBatch: 4, QueueCap: 8, MaxDelay: time.Millisecond,
	})
	go s.Classify(sample(1, 4)) // wedge the worker inside the engine
	select {
	case <-stub.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never entered the engine")
	}
	four := [][]float32{sample(1, 4), sample(1, 4), sample(1, 4), sample(1, 4)}
	g1, g2 := newGroup(context.Background(), four), newGroup(context.Background(), four)
	for _, g := range []*group{g1, g2} {
		if err := s.submit(g); err != nil {
			t.Fatalf("submit of 4 samples into an 8-sample queue: %v", err)
		}
	}
	if h := s.Health(); h.QueueLen != 8 || h.QueueCap != 8 {
		t.Errorf("health queue = %d/%d with two 4-sample groups queued, want 8/8", h.QueueLen, h.QueueCap)
	}
	if _, err := s.Classify(sample(1, 4)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("Classify into a full queue = %v, want ErrOverloaded", err)
	}
	if _, err := s.classifyMany(context.Background(), four[:3]); !errors.Is(err, ErrOverloaded) {
		t.Errorf("3-sample request into a full queue = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 4 {
		t.Errorf("rejected = %d after refusing 1 + 3 samples, want 4", st.Rejected)
	}
	close(gate)
	for _, g := range []*group{g1, g2} {
		if classes, err := s.await(g); err != nil || len(classes) != 4 {
			t.Errorf("queued group answered %v, %v; want 4 classes", classes, err)
		}
	}
	if h := s.Health(); h.QueueLen != 0 {
		t.Errorf("queue gauge = %d after the drain, want 0", h.QueueLen)
	}
	if st := s.Stats(); st.Requests != 9 || st.QueueWaitNs == 0 {
		t.Errorf("requests = %d, queue_wait_ns = %d; want 9 and > 0", st.Requests, st.QueueWaitNs)
	}
}

// quietClassifier allocates nothing, so AllocsPerRun sees the server alone.
type quietClassifier struct{ out []int }

func (c *quietClassifier) Classify(x *tensor.Tensor) ([]int, error) { return c.out[:x.Dim(0)], nil }

var headerSink *tensor.Tensor // keeps the measured header on the heap, where the worker's is

// TestClassifyAllocs pins what a request costs beyond the engine call: the
// group and its reply channel — a single sample rides the array inside the
// group, not a [][]float32 of its own — plus, for a multi-sample request,
// the classes it returns. AllocsPerRun counts the whole process, so the
// tensor header the worker builds per batch is measured and taken off.
func TestClassifyAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{Engine: &quietClassifier{out: make([]int, 32)}, MaxBatch: 32})
	buf := make([]float32, 4)
	perBatch := testing.AllocsPerRun(100, func() { headerSink, _ = tensor.FromSlice(buf, 1, 1, 2, 2) })
	img := sample(1, 4)
	if got := testing.AllocsPerRun(100, func() { _, _ = s.Classify(img) }) - perBatch; got > 2 {
		t.Errorf("Classify allocates %.0f times (batch tensor header excluded), want ≤ 2", got)
	}
	rows := make([][]float32, 16)
	for i := range rows {
		rows[i] = img
	}
	ctx := context.Background()
	if got := testing.AllocsPerRun(100, func() { _, _ = s.classifyMany(ctx, rows) }) - perBatch; got > 3 {
		t.Errorf("16-sample classifyMany allocates %.0f times (batch tensor header excluded), want ≤ 3", got)
	}
}

// spinClassifier burns processor time like the int8 engine does (a fixed
// cost per call plus a cost per sample), so closed-loop callers compete
// with the workers for the cores as they do in production.
type spinClassifier struct{ base, perSample time.Duration }

func (c spinClassifier) Classify(x *tensor.Tensor) ([]int, error) {
	n := x.Dim(0)
	for end := time.Now().Add(c.base + time.Duration(n)*c.perSample); time.Now().Before(end); {
	}
	return make([]int, n), nil
}

// BenchmarkServeClosedLoop64 is the in-package guard for gatherYields: 64
// closed-loop callers against two workers. With too few yields batches do
// not form (mean-batch near 1, p99 in the tens of milliseconds); the
// reported metrics, not ns/op, are what to compare.
func BenchmarkServeClosedLoop64(b *testing.B) {
	s, err := New(Config{
		Engine: spinClassifier{base: 30 * time.Microsecond, perSample: 40 * time.Microsecond},
		InC:    3, InH: 16, InW: 16, Workers: 2, MaxBatch: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const callers = 64
	img := make([]float32, 3*16*16)
	lat := make([][]int64, callers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	b.ResetTimer()
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				t0 := time.Now()
				if _, err := s.Classify(img); err != nil {
					b.Error(err)
					return
				}
				lat[c] = append(lat[c], time.Since(t0).Nanoseconds())
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	var all []int64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st := s.Stats()
	b.ReportMetric(st.MeanBatch, "mean-batch")
	if len(all) > 0 {
		b.ReportMetric(float64(all[len(all)*99/100])/1e6, "p99-ms")
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
