package data

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestPackBatch(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 3, Train: 5, Test: 3, Size: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Wraps modulo the dataset length.
	x, labels, err := PackBatch(tr, 7)
	if err != nil {
		t.Fatalf("PackBatch: %v", err)
	}
	if got := x.Shape(); got[0] != 7 || got[1] != 3 || got[2] != 8 || got[3] != 8 {
		t.Fatalf("batch shape %v", got)
	}
	if len(labels) != 7 {
		t.Fatalf("labels %d", len(labels))
	}
	img0, l0 := tr.Sample(0)
	per := img0.Len()
	for j := 0; j < per; j++ {
		if x.Data()[j] != img0.Data()[j] {
			t.Fatalf("sample 0 not copied at %d", j)
		}
		if x.Data()[5*per+j] != img0.Data()[j] {
			t.Fatalf("sample 5 did not wrap to sample 0 at %d", j)
		}
	}
	if labels[0] != l0 || labels[5] != l0 {
		t.Errorf("labels did not wrap: %v vs %d", labels, l0)
	}
	if _, _, err := PackBatch(tr, 0); err == nil {
		t.Error("zero-size batch did not error")
	}
	if _, _, err := PackBatch(nil, 4); err == nil {
		t.Error("nil dataset did not error")
	}
}

func TestNewSynthValidation(t *testing.T) {
	if _, _, err := NewSynth(SynthConfig{Train: 0, Test: 10}); err == nil {
		t.Error("zero train size did not error")
	}
	if _, _, err := NewSynth(SynthConfig{Train: 10, Test: 0}); err == nil {
		t.Error("zero test size did not error")
	}
	if _, _, err := NewSynth(SynthConfig{Classes: 1, Train: 10, Test: 10}); err == nil {
		t.Error("single class did not error")
	}
}

func TestSynthGeometryAndBalance(t *testing.T) {
	tr, te, err := NewSynth(SynthConfig{Classes: 5, Train: 50, Test: 25, Size: 16, Seed: 1})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	if tr.Len() != 50 || te.Len() != 25 {
		t.Fatalf("split sizes = (%d, %d)", tr.Len(), te.Len())
	}
	if tr.NumClasses() != 5 {
		t.Fatalf("NumClasses = %d", tr.NumClasses())
	}
	counts := make([]int, 5)
	for i := 0; i < tr.Len(); i++ {
		img, label := tr.Sample(i)
		if label < 0 || label >= 5 {
			t.Fatalf("label %d out of range", label)
		}
		counts[label]++
		s := img.Shape()
		if len(s) != 3 || s[0] != 3 || s[1] != 16 || s[2] != 16 {
			t.Fatalf("image shape %v, want (3,16,16)", s)
		}
		if img.HasNaN() {
			t.Fatal("image contains NaN")
		}
	}
	for c, n := range counts {
		if n != 10 {
			t.Errorf("class %d has %d samples, want 10 (balanced)", c, n)
		}
	}
}

func TestSynthDeterministicAcrossConstructions(t *testing.T) {
	cfg := SynthConfig{Classes: 3, Train: 12, Test: 6, Size: 8, Seed: 9}
	tr1, _, err := NewSynth(cfg)
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	tr2, _, err := NewSynth(cfg)
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	for i := 0; i < tr1.Len(); i++ {
		a, la := tr1.Sample(i)
		b, lb := tr2.Sample(i)
		if la != lb {
			t.Fatalf("labels differ at %d", i)
		}
		for j := range a.Data() {
			if a.Data()[j] != b.Data()[j] {
				t.Fatalf("pixel %d of sample %d differs", j, i)
			}
		}
	}
}

func TestSynthSeedsProduceDifferentData(t *testing.T) {
	a, _, err := NewSynth(SynthConfig{Classes: 3, Train: 6, Test: 3, Size: 8, Seed: 1})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	b, _, err := NewSynth(SynthConfig{Classes: 3, Train: 6, Test: 3, Size: 8, Seed: 2})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	imgA, _ := a.Sample(0)
	imgB, _ := b.Sample(0)
	same := true
	for j := range imgA.Data() {
		if imgA.Data()[j] != imgB.Data()[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical images")
	}
}

// Property: same-class samples are more alike than cross-class samples on
// average (the task is learnable), measured by mean squared distance over
// a handful of pairs.
func TestSynthClassStructureProperty(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 4, Train: 64, Test: 8, Size: 12, Seed: 3, Noise: 0.3})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	dist := func(a, b *tensor.Tensor) float64 {
		var s float64
		for i := range a.Data() {
			d := float64(a.Data()[i] - b.Data()[i])
			s += d * d
		}
		return s / float64(a.Len())
	}
	var within, across float64
	var nw, na int
	for i := 0; i < tr.Len(); i++ {
		for j := i + 1; j < tr.Len(); j += 7 {
			ai, li := tr.Sample(i)
			aj, lj := tr.Sample(j)
			d := dist(ai, aj)
			if li == lj {
				within += d
				nw++
			} else {
				across += d
				na++
			}
		}
	}
	if nw == 0 || na == 0 {
		t.Fatal("degenerate pair sampling")
	}
	if within/float64(nw) >= across/float64(na) {
		t.Errorf("within-class distance %.4f >= across-class %.4f; task has no class structure",
			within/float64(nw), across/float64(na))
	}
}

func TestAugmentedPreservesGeometry(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 3, Train: 9, Test: 3, Size: 16, Seed: 5})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	aug, err := NewAugmented(tr, 2, 16, tensor.NewRNG(1))
	if err != nil {
		t.Fatalf("NewAugmented: %v", err)
	}
	if aug.Len() != tr.Len() || aug.NumClasses() != tr.NumClasses() {
		t.Error("augmentation changed dataset size or classes")
	}
	img, label := aug.Sample(0)
	_, wantLabel := tr.Sample(0)
	if label != wantLabel {
		t.Error("augmentation changed the label")
	}
	s := img.Shape()
	if s[1] != 16 || s[2] != 16 {
		t.Errorf("augmented shape %v, want 16x16", s)
	}
}

func TestAugmentedVariesAcrossCalls(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 3, Train: 9, Test: 3, Size: 16, Seed: 5})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	aug, err := NewAugmented(tr, 2, 16, tensor.NewRNG(1))
	if err != nil {
		t.Fatalf("NewAugmented: %v", err)
	}
	a, _ := aug.Sample(0)
	aCopy := a.Clone()
	different := false
	for trial := 0; trial < 8; trial++ {
		b, _ := aug.Sample(0)
		for i := range aCopy.Data() {
			if b.Data()[i] != aCopy.Data()[i] {
				different = true
				break
			}
		}
		if different {
			break
		}
	}
	if !different {
		t.Error("8 augmented views of the same image were identical")
	}
}

func TestAugmentedValidation(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 3, Train: 9, Test: 3, Size: 16, Seed: 5})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	if _, err := NewAugmented(tr, -1, 16, tensor.NewRNG(1)); err == nil {
		t.Error("negative pad did not error")
	}
	if _, err := NewAugmented(tr, 2, 0, tensor.NewRNG(1)); err == nil {
		t.Error("zero size did not error")
	}
	if _, err := NewAugmented(tr, 2, 16, nil); err == nil {
		t.Error("nil rng did not error")
	}
}

func TestLoaderCoversEpochExactlyOnce(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 2, Train: 10, Test: 2, Size: 8, Seed: 2})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	loader, err := NewLoader(tr, 3, tensor.NewRNG(4))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	total := 0
	batches := 0
	for {
		batch, labels, ok := loader.Next()
		if !ok {
			break
		}
		if batch.Dim(0) != len(labels) {
			t.Fatalf("batch dim %d != %d labels", batch.Dim(0), len(labels))
		}
		total += len(labels)
		batches++
	}
	if total != 10 || batches != 4 {
		t.Errorf("epoch covered %d samples in %d batches, want 10 in 4", total, batches)
	}
	// Next epoch restarts.
	batch, _, ok := loader.Next()
	if !ok || batch == nil {
		t.Error("loader did not restart after epoch end")
	}
}

func TestLoaderShufflesBetweenEpochs(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 2, Train: 32, Test: 2, Size: 8, Seed: 2})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	loader, err := NewLoader(tr, 32, tensor.NewRNG(4))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	_, labels1, _ := loader.Next()
	loader.Next() // consume epoch end
	_, labels2, _ := loader.Next()
	same := true
	for i := range labels1 {
		if labels1[i] != labels2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two epochs produced identical order")
	}
}

func TestLoaderUnshuffledIsSequential(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 2, Train: 6, Test: 2, Size: 8, Seed: 2})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	loader, err := NewLoader(tr, 6, nil)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	_, labels, _ := loader.Next()
	for i, l := range labels {
		_, want := tr.Sample(i)
		if l != want {
			t.Errorf("unshuffled label[%d] = %d, want %d", i, l, want)
		}
	}
}

func TestLoaderValidation(t *testing.T) {
	tr, _, err := NewSynth(SynthConfig{Classes: 2, Train: 6, Test: 2, Size: 8, Seed: 2})
	if err != nil {
		t.Fatalf("NewSynth: %v", err)
	}
	if _, err := NewLoader(tr, 0, nil); err == nil {
		t.Error("zero batch size did not error")
	}
}

// Property: every generated pixel is finite and within a sane range for
// arbitrary seeds and noise levels.
func TestSynthPixelsBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr, _, err := NewSynth(SynthConfig{
			Classes: 2, Train: 4, Test: 2, Size: 8, Seed: seed, Noise: 0.5,
		})
		if err != nil {
			return false
		}
		for i := 0; i < tr.Len(); i++ {
			img, _ := tr.Sample(i)
			if img.HasNaN() {
				return false
			}
			min, max := img.MinMax()
			if min < -50 || max > 50 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
