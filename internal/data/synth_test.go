package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// benchSynth is the benchmark harness's training geometry (bench/adapter.go:
// 16×16, ResNet-20's 10 classes, 1024 + 384 samples, noise 0.8).
var benchSynth = SynthConfig{Classes: 10, Train: 1024, Test: 384, Size: 16, Seed: 1, Noise: 0.8}

// synthCases are the configurations whose bytes are pinned: the bench
// geometry, the 3×32×32 default, and 1 and 4 channels, which reuse the
// per-channel prototype colours as ch%3.
var synthCases = []struct {
	name   string
	cfg    SynthConfig
	digest string // SHA-256 of synthDigest's stream, amd64
}{
	{"bench16", benchSynth, "eef646bafe898d7b3a7bafb8badbac413678e9d346ff2b600b4dd58ebe991bd7"},
	{"default32", SynthConfig{Train: 20, Test: 10, Seed: 2},
		"a473f0519cb90404140f29b465210ab20779ef001f33de9d7cedd8f6bb2ed5ec"},
	{"gray8", SynthConfig{Classes: 3, Train: 9, Test: 6, Size: 8, Channels: 1, Seed: 3},
		"a7753fa2a33315db2309fa9163c1530f9a77f09273a21798f2dbd49bdac21de8"},
	{"rgba8", SynthConfig{Classes: 3, Train: 9, Test: 6, Size: 8, Channels: 4, Seed: 4},
		"a10aedeafb0bd1e453a012ef8c495d0f6781f7957d4a8baee6ed66dd4009549f"},
}

// synthDigest builds cfg's splits and hashes, train then test, every
// sample's label and the float32 bits of its pixels. A build error comes
// back in place of the digest, so the caller's comparison reports it.
func synthDigest(cfg SynthConfig) string {
	tr, te, err := NewSynth(cfg)
	if err != nil {
		return err.Error()
	}
	h := sha256.New()
	var buf [4]byte
	for _, s := range []*Synth{tr, te} {
		for i := 0; i < s.Len(); i++ {
			img, label := s.Sample(i)
			binary.LittleEndian.PutUint32(buf[:], uint32(label))
			h.Write(buf[:])
			for _, v := range img.Data() {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSynthBytesPinned holds the SynthCIFAR splits of every synthCases
// entry to committed digests, so a change to the generator that claims to
// move no bytes fails by case name. Like the backbone digests, they pin
// amd64 rounding only: Go may fuse x*y+z into one FMA on other arches.
func TestSynthBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pin amd64 rounding; the Go compiler may fuse x*y+z into one FMA on %s", runtime.GOARCH)
	}
	for _, c := range synthCases {
		if got := synthDigest(c.cfg); got != c.digest {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.digest)
		}
	}
}

// TestSynthWorkerInvariant requires every synthCases entry to build the
// same bytes at any fan-out, and from inside a ParallelFor job, where
// NewSynth's own fork nests in a busy pool.
func TestSynthWorkerInvariant(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.MaxWorkers())
	for _, c := range synthCases {
		tensor.SetMaxWorkers(1)
		want := synthDigest(c.cfg)
		for _, w := range []int{2, 3, 8} {
			tensor.SetMaxWorkers(w)
			if got := synthDigest(c.cfg); got != want {
				t.Errorf("%s at %d workers: digest %s, want %s", c.name, w, got, want)
			}
		}
		tensor.SetMaxWorkers(4)
		var nested [2]string
		tensor.ParallelFor(len(nested), func(i int) { nested[i] = synthDigest(c.cfg) })
		for i, got := range nested {
			if got != want {
				t.Errorf("%s nested in job %d: digest %s, want %s", c.name, i, got, want)
			}
		}
	}
}

// BenchmarkNewSynth builds both splits at the benchmark harness's geometry.
func BenchmarkNewSynth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := NewSynth(benchSynth); err != nil {
			b.Fatal(err)
		}
	}
}
