package baselines

import (
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func testModel(t *testing.T) *models.Model {
	t.Helper()
	m, err := models.SmallCNN(models.Config{Classes: 4, InputSize: 12, Seed: 3})
	if err != nil {
		t.Fatalf("SmallCNN: %v", err)
	}
	return m
}

func TestFP32ClearsQuantState(t *testing.T) {
	m := testModel(t)
	for _, p := range m.Params() {
		if err := p.SetBits(4); err != nil {
			t.Fatalf("SetBits: %v", err)
		}
		p.EnableMaster()
	}
	s, err := FP32(m.Params())
	if err != nil {
		t.Fatalf("FP32: %v", err)
	}
	if s.BPROPPrecision != "FP32" {
		t.Errorf("BPROP precision %q", s.BPROPPrecision)
	}
	for _, p := range m.Params() {
		if p.Q != nil || p.Master != nil {
			t.Errorf("%s retained quantization state", p.Name)
		}
	}
}

func TestFixedBitsSetsEveryParam(t *testing.T) {
	m := testModel(t)
	s, err := FixedBits(m.Params(), 12)
	if err != nil {
		t.Fatalf("FixedBits: %v", err)
	}
	if s.Name != "12-bit fixed" || s.BPROPPrecision != "12-bit" {
		t.Errorf("setup metadata: %+v", s)
	}
	for _, p := range m.Params() {
		if p.Bits() != 12 {
			t.Errorf("%s bits = %d, want 12", p.Name, p.Bits())
		}
		if p.Master != nil {
			t.Errorf("%s has a master copy; fixed mode must not", p.Name)
		}
	}
	if _, err := FixedBits(m.Params(), 1); err == nil {
		t.Error("bitwidth 1 did not error")
	}
}

func TestBNNBinarizesWeights(t *testing.T) {
	m := testModel(t)
	s, err := BNN(m.Params())
	if err != nil {
		t.Fatalf("BNN: %v", err)
	}
	for _, p := range m.Params() {
		if p.Value.Rank() <= 1 {
			continue // biases/BN stay fp32
		}
		if p.Master == nil {
			t.Fatalf("%s has no master copy", p.Name)
		}
		alpha := float32(p.Master.AbsMean())
		for _, v := range p.Value.Data() {
			if v != alpha && v != -alpha {
				t.Fatalf("%s value %v not in {±%v}", p.Name, v, alpha)
			}
		}
	}
	if s.PostStepHook == nil {
		t.Error("BNN setup lacks a post-step hook")
	}
}

func TestTWNTernarizesWeights(t *testing.T) {
	m := testModel(t)
	if _, err := TWN(m.Params()); err != nil {
		t.Fatalf("TWN: %v", err)
	}
	for _, p := range m.Params() {
		if p.Value.Rank() <= 1 {
			continue
		}
		levels := make(map[float32]bool)
		for _, v := range p.Value.Data() {
			levels[v] = true
		}
		if len(levels) > 3 {
			t.Fatalf("%s has %d levels, want <= 3 (ternary)", p.Name, len(levels))
		}
		if !levels[0] {
			t.Errorf("%s ternary code has no zero level", p.Name)
		}
	}
}

func TestTTQUsesAsymmetricScales(t *testing.T) {
	m := testModel(t)
	if _, err := TTQ(m.Params()); err != nil {
		t.Fatalf("TTQ: %v", err)
	}
	asymFound := false
	for _, p := range m.Params() {
		if p.Value.Rank() <= 1 {
			continue
		}
		var pos, neg float32
		for _, v := range p.Value.Data() {
			if v > 0 {
				pos = v
			}
			if v < 0 {
				neg = v
			}
		}
		if pos != 0 && neg != 0 && pos != -neg {
			asymFound = true
		}
	}
	if !asymFound {
		t.Error("no layer shows asymmetric positive/negative scales")
	}
}

func TestDoReFaQuantizesGradients(t *testing.T) {
	m := testModel(t)
	s, err := DoReFa(m.Params(), 4)
	if err != nil {
		t.Fatalf("DoReFa: %v", err)
	}
	rng := tensor.NewRNG(5)
	for _, p := range m.Params() {
		p.Grad.FillNormal(rng, 0, 1)
	}
	if err := s.GradHook(m.Params()); err != nil {
		t.Fatalf("GradHook: %v", err)
	}
	for _, p := range m.Params() {
		if p.Value.Rank() <= 1 {
			continue
		}
		levels := make(map[float32]bool)
		for _, v := range p.Grad.Data() {
			levels[v] = true
		}
		if len(levels) > 16 {
			t.Fatalf("%s gradient has %d levels after 4-bit quantization", p.Name, len(levels))
		}
	}
}

func TestTernGradTernarizesGradients(t *testing.T) {
	m := testModel(t)
	s, err := TernGrad(m.Params(), tensor.NewRNG(7))
	if err != nil {
		t.Fatalf("TernGrad: %v", err)
	}
	rng := tensor.NewRNG(8)
	for _, p := range m.Params() {
		p.Grad.FillNormal(rng, 0, 1)
	}
	if err := s.GradHook(m.Params()); err != nil {
		t.Fatalf("GradHook: %v", err)
	}
	for _, p := range m.Params() {
		if p.Value.Rank() <= 1 {
			continue
		}
		levels := make(map[float32]bool)
		for _, v := range p.Grad.Data() {
			levels[v] = true
		}
		if len(levels) > 3 {
			t.Fatalf("%s gradient has %d levels, want <= 3", p.Name, len(levels))
		}
		// Weights remain fp32.
		if p.Q != nil {
			t.Errorf("%s weights are quantized; TernGrad keeps fp32 weights", p.Name)
		}
	}
}

func TestTernGradPreservesExpectedMagnitude(t *testing.T) {
	// Stochastic ternarization is unbiased: E[output] = input. Check the
	// aggregate magnitude is preserved within sampling error.
	g := tensor.New(20000)
	g.FillNormal(tensor.NewRNG(9), 0, 0.1)
	n := float64(g.Len())
	min, max := g.MinMax()
	s := math.Max(math.Abs(float64(min)), math.Abs(float64(max)))
	// Each element's ternarized variance is ~ s·|g|, so the sum's standard
	// deviation is sqrt(n·s·mean|g|); allow 5 sigma.
	tol := 5 * math.Sqrt(n*s*g.AbsMean())
	sum := func() (s float64) {
		for _, v := range g.Data() {
			s += float64(v)
		}
		return s
	}
	sumBefore := sum()
	ternarizeGrad(g, tensor.NewRNG(10))
	sumAfter := sum()
	if math.Abs(sumAfter-sumBefore) > tol {
		t.Errorf("ternarized gradient sum %v deviates from original %v by more than %v", sumAfter, sumBefore, tol)
	}
}

func TestWAGEIsEightBitNoMaster(t *testing.T) {
	m := testModel(t)
	s, err := WAGE(m.Params())
	if err != nil {
		t.Fatalf("WAGE: %v", err)
	}
	if s.BPROPPrecision != "8-bit" {
		t.Errorf("WAGE BPROP precision %q", s.BPROPPrecision)
	}
	for _, p := range m.Params() {
		if p.Bits() != 8 || p.Master != nil {
			t.Errorf("%s: bits=%d master=%v, want 8-bit no master", p.Name, p.Bits(), p.Master != nil)
		}
	}
}

func TestE2TrainDropsBatches(t *testing.T) {
	m := testModel(t)
	s, err := E2Train(m.Params(), 0.5, tensor.NewRNG(11))
	if err != nil {
		t.Fatalf("E2Train: %v", err)
	}
	dropped, kept := 0, 0
	for trial := 0; trial < 200; trial++ {
		for _, p := range m.Params() {
			p.Grad.Fill(1)
		}
		if err := s.GradHook(m.Params()); err != nil {
			t.Fatalf("GradHook: %v", err)
		}
		if m.Params()[0].Grad.Data()[0] == 0 {
			dropped++
		} else {
			kept++
		}
	}
	if dropped < 60 || dropped > 140 {
		t.Errorf("dropped %d/200 batches at p=0.5, want ~100", dropped)
	}
	if kept == 0 {
		t.Error("every batch dropped")
	}
	if _, err := E2Train(m.Params(), 1.0, tensor.NewRNG(1)); err == nil {
		t.Error("drop probability 1.0 did not error")
	}
}

func TestMasterQuantLeavesBiasesFP32(t *testing.T) {
	m := testModel(t)
	if _, err := BNN(m.Params()); err != nil {
		t.Fatalf("BNN: %v", err)
	}
	for _, p := range m.Params() {
		if p.Value.Rank() <= 1 {
			if p.Q != nil || p.Master != nil {
				t.Errorf("rank-1 param %s was quantized", p.Name)
			}
		}
	}
}

func TestMemoryAccountingMatchesTable1Claims(t *testing.T) {
	// Master-copy methods must show >= fp32 memory; WAGE ~ 25%.
	m1 := testModel(t)
	if _, err := TWN(m1.Params()); err != nil {
		t.Fatalf("TWN: %v", err)
	}
	var twn, fp32 int64
	for _, p := range m1.Params() {
		twn += p.SizeBits()
		fp32 += int64(p.Value.Len()) * int64(quant.MaxBits)
	}
	if twn < fp32 {
		t.Errorf("TWN training memory %d < fp32 %d; master copies must not save memory", twn, fp32)
	}

	m2 := testModel(t)
	if _, err := WAGE(m2.Params()); err != nil {
		t.Fatalf("WAGE: %v", err)
	}
	var wage int64
	for _, p := range m2.Params() {
		wage += p.SizeBits()
	}
	ratio := float64(wage) / float64(fp32)
	if math.Abs(ratio-0.25) > 1e-9 {
		t.Errorf("WAGE memory ratio = %v, want 0.25", ratio)
	}
}

var _ = nn.Param{} // document the package under test's dependency
