package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestMACCostMonotoneAndNormalized(t *testing.T) {
	m := DefaultModel()
	prev := 0.0
	for k := 2; k <= 32; k++ {
		c := m.MACCost(k)
		if c <= prev {
			t.Fatalf("MACCost(%d) = %v not increasing", k, c)
		}
		prev = c
	}
	// The quadratic term dominates: halving the bitwidth must save more
	// than half the energy.
	if m.MACCost(16) >= m.MACCost(32)/2 {
		t.Errorf("MACCost(16) = %v, want < half of MACCost(32) = %v", m.MACCost(16), m.MACCost(32))
	}
}

// Property: iteration energy is monotone in bitwidth for any single layer.
func TestIterationEnergyMonotoneProperty(t *testing.T) {
	m := DefaultModel()
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		macs := int64(1 + rng.Intn(100000))
		prev := -1.0
		for k := 2; k <= 32; k++ {
			e := m.IterationEnergy([]LayerCost{{MACs: macs, Bits: k}})
			if e <= prev {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMasterPenaltyIncreasesEnergy(t *testing.T) {
	m := DefaultModel()
	base := []LayerCost{{MACs: 1000, Bits: 8, Params: 500}}
	withMaster := []LayerCost{{MACs: 1000, Bits: 8, Params: 500, Master: true}}
	if m.IterationEnergy(withMaster) <= m.IterationEnergy(base) {
		t.Error("master copy did not add energy cost")
	}
}

func TestFP32ReferenceIgnoresQuantization(t *testing.T) {
	m := DefaultModel()
	quantized := []LayerCost{{MACs: 1000, Bits: 4, Params: 100, Master: true}}
	full := []LayerCost{{MACs: 1000, Bits: 32, Params: 100}}
	refQ := m.FP32Reference(quantized, 10)
	refF := m.FP32Reference(full, 10)
	if refQ != refF {
		t.Errorf("FP32Reference depends on input precision: %v vs %v", refQ, refF)
	}
	if refQ != m.IterationEnergy(full)*10 {
		t.Errorf("FP32Reference = %v, want %v", refQ, m.IterationEnergy(full)*10)
	}
}

func TestModelSizeBits(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := tensor.New(100)
	a.FillNormal(rng, 0, 1)
	b := tensor.New(50)
	b.FillNormal(rng, 0, 1)
	pa, pb := nn.NewParam("a", a), nn.NewParam("b", b)
	if err := pa.SetBits(8); err != nil {
		t.Fatalf("SetBits: %v", err)
	}
	// pb stays fp32.
	got := ModelSizeBits([]*nn.Param{pa, pb})
	want := int64(100*8 + 50*32)
	if got != want {
		t.Errorf("ModelSizeBits = %d, want %d", got, want)
	}
	if fp := FP32SizeBits([]*nn.Param{pa, pb}); fp != int64(150*32) {
		t.Errorf("FP32SizeBits = %d, want %d", fp, 150*32)
	}
}

func TestSnapshotWalksResNetPerLayer(t *testing.T) {
	m, err := models.ResNet20(models.Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("ResNet20: %v", err)
	}
	snap := Snapshot(m.Layers())
	// ResNet-20 has 21 conv layers (stem + 18 block convs + 2 downsample)
	// plus the classifier = 22 parameterized cost entries.
	var withParams int
	var totalMACs int64
	for _, lc := range snap {
		if lc.Params > 0 {
			withParams++
		}
		totalMACs += lc.MACs
	}
	if withParams < 20 {
		t.Errorf("snapshot found %d parameterized layers, want >= 20 (per-layer recursion into blocks)", withParams)
	}
	if totalMACs != m.Net.MACs() {
		t.Errorf("snapshot MACs %d != model MACs %d", totalMACs, m.Net.MACs())
	}
}

func TestSnapshotReflectsBitChanges(t *testing.T) {
	m, err := models.ResNet20(models.Config{Classes: 10, InputSize: 16, Width: 0.25, Seed: 1})
	if err != nil {
		t.Fatalf("ResNet20: %v", err)
	}
	em := DefaultModel()
	before := em.IterationEnergy(Snapshot(m.Layers()))
	for _, p := range m.Params() {
		if err := p.SetBits(6); err != nil {
			t.Fatalf("SetBits: %v", err)
		}
	}
	after := em.IterationEnergy(Snapshot(m.Layers()))
	if after >= before {
		t.Errorf("6-bit energy %v >= fp32 energy %v", after, before)
	}
	if after > before*0.2 {
		t.Errorf("6-bit energy %v more than 20%% of fp32 %v; quadratic term should dominate", after, before)
	}
}

func TestMeterAccumulates(t *testing.T) {
	m := NewMeter(DefaultModel())
	lc := []LayerCost{{MACs: 100, Bits: 32}}
	m.Charge(lc, 2)
	m.Charge(lc, 3)
	want := DefaultModel().IterationEnergy(lc) * 5
	if math.Abs(m.Total()-want) > 1e-9 {
		t.Errorf("Total = %v, want %v", m.Total(), want)
	}
}
