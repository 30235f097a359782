package dist

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/tensor"
)

// testConfig builds a tiny SmallCNN run: 64 train samples, batch 16 gives
// 4 shards per epoch (2 rounds at Workers=2).
func testConfig(t *testing.T, workers, epochs int) Config {
	t.Helper()
	tr, te, err := data.NewSynth(data.SynthConfig{
		Classes: 3, Train: 64, Test: 32, Size: 8, Seed: 17, Noise: 0.4,
	})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	return Config{
		Workers: workers,
		Build: func() (*models.Model, error) {
			return models.SmallCNN(models.Config{Classes: 3, InputSize: 8, Seed: 5})
		},
		Train: tr, Test: te,
		BatchSize: 16, Epochs: epochs,
		LR: 0.05, Momentum: 0.9,
		Seed: 23,
	}
}

func aptConfig() *core.Config {
	c := core.DefaultConfig()
	c.Interval = 1 // observe every round; rounds per epoch are few here
	return &c
}

// --- codecs -----------------------------------------------------------------

func TestKBitCodecIdempotent(t *testing.T) {
	for _, bits := range []int{2, 4, 8} {
		c := KBitCodec{Bits: bits}
		g := tensor.New(257)
		g.FillNormal(tensor.NewRNG(uint64(bits)), 0, 1)

		b1 := c.Encode(g)
		once := append([]float32(nil), g.Data()...)
		b2 := c.Encode(g)
		for i, v := range g.Data() {
			if v != once[i] {
				t.Fatalf("bits=%d: re-encode moved element %d: %v -> %v", bits, i, once[i], v)
			}
		}
		if b1 != b2 {
			t.Errorf("bits=%d: byte cost changed on re-encode: %d vs %d", bits, b1, b2)
		}
		want := (int64(g.Len())*int64(bits)+7)/8 + 8
		if b1 != want {
			t.Errorf("bits=%d: cost = %d, want %d", bits, b1, want)
		}
	}
}

func TestTernaryCodecLevels(t *testing.T) {
	c := NewTernaryCodec(41)
	g := tensor.New(512)
	g.FillNormal(tensor.NewRNG(9), 0, 0.3)
	var s float32
	for _, v := range g.Data() {
		if a := float32(math.Abs(float64(v))); a > s {
			s = a
		}
	}
	bytes := c.Encode(g)
	nonzero := 0
	for i, v := range g.Data() {
		if v != 0 && v != s && v != -s {
			t.Fatalf("element %d = %v, want one of {%v, 0, %v}", i, v, -s, s)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("ternary code zeroed every element")
	}
	if want := (int64(g.Len())*2+7)/8 + 4; bytes != want {
		t.Errorf("cost = %d, want %d", bytes, want)
	}
}

func TestTernaryCodecZeroTensor(t *testing.T) {
	c := NewTernaryCodec(1)
	g := tensor.New(10)
	if b := c.Encode(g); b <= 0 {
		t.Errorf("zero tensor cost = %d, want > 0", b)
	}
	for i, v := range g.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

// --- traffic accounting -----------------------------------------------------

// paramElems returns the total learnable element count of the test model.
func paramElems(t *testing.T, cfg Config) int64 {
	t.Helper()
	m, err := cfg.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var n int64
	for _, p := range m.Params() {
		n += int64(p.Value.Len())
	}
	return n
}

// paramCount returns the number of learnable tensors of the test model.
func paramCount(t *testing.T, cfg Config) int64 {
	t.Helper()
	m, err := cfg.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return int64(len(m.Params()))
}

func TestTrafficAccountingExact(t *testing.T) {
	// 64 samples / batch 16 = 4 shards per epoch; 2 workers = 2 rounds.
	cfg := testConfig(t, 2, 2)
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elems := paramElems(t, cfg)
	const shardsPerEpoch, rounds = 4, 4 // 2 epochs x 2 rounds
	if st.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", st.Rounds, rounds)
	}
	wantUp := elems * 4 * shardsPerEpoch * int64(cfg.Epochs)
	if st.UpBytes != wantUp {
		t.Errorf("UpBytes = %d, want %d", st.UpBytes, wantUp)
	}
	wantDown := elems * 4 * shardsPerEpoch * int64(cfg.Epochs)
	if st.DownBytes != wantDown {
		t.Errorf("DownBytes = %d, want %d", st.DownBytes, wantDown)
	}
}

func TestTrafficAccountingKBitUplink(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	cfg.Codec = KBitCodec{Bits: 8}
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elems := paramElems(t, cfg)
	tensors := paramCount(t, cfg)
	const shards = 4
	// Per shard: one byte per element (8-bit) plus the 8-byte range
	// header per tensor. SmallCNN's per-tensor element counts are all
	// multiples of 8, so the ceiling division is exact.
	wantUp := (elems + 8*tensors) * shards
	if st.UpBytes != wantUp {
		t.Errorf("UpBytes = %d, want %d", st.UpBytes, wantUp)
	}
}

// --- determinism ------------------------------------------------------------

// finalWeights flattens the final parameter values of a run.
func finalWeights(st *Stats) []float32 {
	var out []float32
	for _, p := range st.Final.Params {
		out = append(out, p.Value...)
	}
	return out
}

func assertIdenticalRuns(t *testing.T, a, b *Stats, what string) {
	t.Helper()
	if a.UpBytes != b.UpBytes || a.DownBytes != b.DownBytes || a.Rounds != b.Rounds {
		t.Errorf("%s: traffic differs: up %d/%d down %d/%d rounds %d/%d",
			what, a.UpBytes, b.UpBytes, a.DownBytes, b.DownBytes, a.Rounds, b.Rounds)
	}
	if len(a.Accs) != len(b.Accs) {
		t.Fatalf("%s: %d vs %d epochs", what, len(a.Accs), len(b.Accs))
	}
	for e := range a.Accs {
		if a.Accs[e] != b.Accs[e] {
			t.Errorf("%s: epoch %d accuracy %v vs %v", what, e, a.Accs[e], b.Accs[e])
		}
	}
	wa, wb := finalWeights(a), finalWeights(b)
	if len(wa) != len(wb) {
		t.Fatalf("%s: weight counts differ", what)
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("%s: weight %d = %v vs %v (trajectories diverged)", what, i, wa[i], wb[i])
		}
	}
}

// TestConcurrentSeedStable: at Workers>1 the engine must be deterministic
// for a fixed seed regardless of goroutine scheduling.
func TestConcurrentSeedStable(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(t, 3, 2)
		cfg.Codec = NewTernaryCodec(77)
		cfg.APT = aptConfig()
		cfg.QuantBroadcast = true
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	assertIdenticalRuns(t, a, b, "workers=3 repeat")
}

// orderCodec records the first element of every tensor it encodes, so a
// test can read back the order in which the server ingested pushes.
type orderCodec struct{ seen []float32 }

func (*orderCodec) Name() string { return "order" }

func (c *orderCodec) Encode(g *tensor.Tensor) int64 {
	c.seen = append(c.seen, g.Data()[0])
	return 0
}

// TestStrictIngestsInSlotOrder drives collectStrict directly — parked
// replicas, no goroutines — with results delivered out of slot order:
// the strict barrier must still push them through the codec and into the
// sum in slot order, the order that keeps stateful codecs (and sums over
// three or more workers) independent of scheduling.
func TestStrictIngestsInSlotOrder(t *testing.T) {
	cfg := testConfig(t, 3, 1)
	codec := &orderCodec{}
	cfg.Codec = codec
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	for w := 0; w < cfg.Workers; w++ {
		r := parkedReplica(t, cfg, w)
		for _, g := range r.stage {
			g.Fill(float32(w + 1))
		}
		e.slots = append(e.slots, &slot{r: r, alive: true, busy: true})
	}
	e.pending = cfg.Workers
	for _, w := range []int{2, 0, 1} {
		e.results <- result{r: e.slots[w].r}
	}
	if err := e.collectStrict(cfg.Workers); err != nil {
		t.Fatalf("collectStrict: %v", err)
	}
	per := len(e.params)
	if e.got != cfg.Workers || len(codec.seen) != cfg.Workers*per {
		t.Fatalf("ingested %d pushes of %d tensors, want %d of %d", e.got, len(codec.seen), cfg.Workers, cfg.Workers*per)
	}
	for i, v := range codec.seen {
		if want := float32(i/per + 1); v != want {
			t.Fatalf("tensor %d came from worker %v, want worker %v (slot order)", i, v-1, want-1)
		}
	}
}

// TestQuantBroadcastShrinksDownlink demonstrates the tentpole scenario:
// with the server running APT at 6-bit init, the bitwidth-aware broadcast
// must spend well under half the fp32 downlink.
func TestQuantBroadcastShrinksDownlink(t *testing.T) {
	mk := func(quantBcast bool) Config {
		cfg := testConfig(t, 2, 2)
		cfg.APT = aptConfig()
		cfg.QuantBroadcast = quantBcast
		return cfg
	}
	full, err := Run(mk(false))
	if err != nil {
		t.Fatalf("fp32 broadcast: %v", err)
	}
	packed, err := Run(mk(true))
	if err != nil {
		t.Fatalf("quant broadcast: %v", err)
	}
	if full.DownBytes == 0 || packed.DownBytes == 0 {
		t.Fatal("no downlink traffic recorded")
	}
	if ratio := float64(packed.DownBytes) / float64(full.DownBytes); ratio >= 0.5 {
		t.Errorf("quantized downlink ratio = %.3f, want < 0.5 (packed %d vs fp32 %d)",
			ratio, packed.DownBytes, full.DownBytes)
	}
	if packed.UpBytes != full.UpBytes {
		t.Errorf("uplink changed with broadcast mode: %d vs %d", packed.UpBytes, full.UpBytes)
	}
	if packed.MeanBits >= 32 {
		t.Errorf("mean bits = %.1f, want < 32 under APT", packed.MeanBits)
	}
}

// TestQuantBroadcastAllocFree pins the per-round cost of the bit-packed
// broadcast: after one warm-up round has sized every parameter's payload,
// pricing and applying a round's broadcast allocates nothing.
func TestQuantBroadcastAllocFree(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	cfg.APT = aptConfig()
	cfg.QuantBroadcast = true
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per, err := e.broadcastBytes()
	if err != nil {
		t.Fatal(err)
	}
	if per >= 4*paramElems(t, cfg) {
		t.Fatalf("broadcast of %d bytes packs nothing", per)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.broadcastBytes(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("broadcastBytes allocates %v times per round, want 0", allocs)
	}
}

// TestRunTrainsAndImproves sanity-checks that the engine actually learns on the easy synthetic task.
func TestRunTrainsAndImproves(t *testing.T) {
	cfg := testConfig(t, 2, 3)
	st, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.FinalAcc() <= 1.0/3+0.05 {
		t.Errorf("final accuracy %.3f is not above chance", st.FinalAcc())
	}
}

func TestRunValidation(t *testing.T) {
	cfg := testConfig(t, 0, 1)
	if _, err := Run(cfg); err == nil {
		t.Error("zero workers did not error")
	}
	cfg = testConfig(t, 1, 1)
	cfg.QuantBroadcast = true // without APT
	if _, err := Run(cfg); err == nil {
		t.Error("QuantBroadcast without APT did not error")
	}
	cfg = testConfig(t, 1, 1)
	cfg.BatchSize = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero batch size did not error")
	}
}
