// Package energy implements the analytical training-cost model that stands
// in for the paper's hardware energy measurements (see DESIGN.md §1). The
// paper reports training energy and training-time model size normalized to
// the fp32 run of the same workload; this package reproduces exactly those
// normalized quantities.
//
// Cost model. One multiply-accumulate on k-bit operands costs
//
//	e(k) = (k/32)² · MACWeight + (k/32) · MoveWeight
//
// relative cost units: the quadratic term models the multiplier array
// (silicon multiplier energy grows ~quadratically with operand width), the
// linear term models operand movement (memory traffic grows linearly with
// width). A training iteration charges every layer's forward MACs once at
// the layer's weight bitwidth and its backward MACs twice (dX and dW
// GEMMs), which is the standard 1:2 FPROP:BPROP cost ratio. Methods that
// keep an fp32 master copy additionally pay 32-bit movement for the master
// update traffic.
package energy

import (
	"repro/internal/nn"
	"repro/internal/quant"
)

// Model holds the cost-model coefficients. The zero value is not useful;
// use DefaultModel, the coefficients every run prices with.
type Model struct {
	// MACWeight scales the quadratic (multiplier) term.
	MACWeight float64
	// MoveWeight scales the linear (data-movement) term.
	MoveWeight float64
	// BackwardFactor is the BPROP:FPROP MAC ratio (2 for the dX+dW GEMMs).
	BackwardFactor float64
	// MasterMovePenalty charges, per parameter per iteration, the extra
	// 32-bit traffic of updating an fp32 master copy (in units of one
	// 32-bit MAC's movement cost).
	MasterMovePenalty float64
}

// DefaultModel returns the coefficients used throughout the experiments.
func DefaultModel() Model {
	return Model{
		MACWeight:         1.0,
		MoveWeight:        0.5,
		BackwardFactor:    2.0,
		MasterMovePenalty: 1.0,
	}
}

// MACCost returns the relative cost of one MAC at bitwidth k.
func (m Model) MACCost(k int) float64 {
	r := float64(k) / 32.0
	return r*r*m.MACWeight + r*m.MoveWeight
}

// LayerCost describes one layer's contribution to an iteration.
type LayerCost struct {
	Name   string
	MACs   int64
	Bits   int
	Params int64
	Master bool
}

// IterationEnergy returns the relative energy of one training iteration
// (forward + backward) over a single sample for the given layer costs.
// Multiply by the batch size for a mini-batch.
func (m Model) IterationEnergy(layers []LayerCost) float64 {
	var e float64
	for _, lc := range layers {
		macs := float64(lc.MACs)
		e += macs * (1 + m.BackwardFactor) * m.MACCost(lc.Bits)
		if lc.Master {
			e += float64(lc.Params) * m.MasterMovePenalty * m.MACCost(32) * m.MoveWeight
		}
	}
	return e
}

// ModelSizeBits returns the training-time parameter storage in bits,
// counting quantized working copies at their bitwidth and fp32 masters at
// 32 bits (the paper's Figure 5 "model size for training").
func ModelSizeBits(params []*nn.Param) int64 {
	var bits int64
	for _, p := range params {
		bits += p.SizeBits()
	}
	return bits
}

// Snapshot captures the per-layer cost inputs from a live model: each
// parameter-bearing layer contributes its MACs at the bitwidth of its
// weight parameter. Layers without a Coster (activations, pooling) are
// free in this model, as their cost neither depends on weight precision
// nor differs between methods.
func Snapshot(layers []nn.Layer) []LayerCost { return appendCosts(nil, layers) }

func appendCosts(out []LayerCost, layers []nn.Layer) []LayerCost {
	for _, l := range layers {
		// Containers recurse so per-layer bitwidths inside nodes and
		// blocks are honored.
		if c, ok := l.(nn.Container); ok {
			out = appendCosts(out, c.Layers())
			continue
		}
		c, ok := l.(nn.Coster)
		if !ok {
			continue
		}
		ps := l.Params()
		lc := LayerCost{Name: l.Name(), MACs: c.MACs(), Bits: 32}
		for _, p := range ps {
			lc.Params += int64(p.Value.Len())
		}
		if len(ps) > 0 {
			lc.Bits = ps[0].Bits()
			lc.Master = ps[0].Master != nil
		}
		out = append(out, lc)
	}
	return out
}

// Meter accumulates training energy across iterations.
type Meter struct {
	model Model
	total float64
}

// NewMeter returns a meter using the given cost model.
func NewMeter(model Model) *Meter { return &Meter{model: model} }

// Charge adds the cost of batchSize samples through the given layer costs.
func (m *Meter) Charge(layers []LayerCost, batchSize int) {
	m.total += m.model.IterationEnergy(layers) * float64(batchSize)
}

// Total returns the accumulated relative energy.
func (m *Meter) Total() float64 { return m.total }

// FP32Reference computes the energy an fp32 run of the same geometry
// would spend over the given number of samples: every layer at 32 bits.
func (m Model) FP32Reference(layers []LayerCost, samples int64) float64 {
	ref := make([]LayerCost, len(layers))
	copy(ref, layers)
	for i := range ref {
		ref[i].Bits = 32
		ref[i].Master = false
	}
	return m.IterationEnergy(ref) * float64(samples)
}

// FP32SizeBits returns the fp32 model size in bits for normalization.
func FP32SizeBits(params []*nn.Param) int64 {
	var n int64
	for _, p := range params {
		n += int64(p.Value.Len())
	}
	return n * int64(quant.MaxBits)
}
