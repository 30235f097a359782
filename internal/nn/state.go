package nn

import (
	"fmt"

	"repro/internal/quant"
)

// Replica state export/import. Data-parallel training (internal/dist)
// keeps one full model replica per worker and must hold them bit-identical
// to the parameter server's canonical copy between rounds. That requires
// moving not just the weight values but the whole precision state: the
// affine quant grid of every parameter (bitwidth, range, ε), any fp32
// master copy, and the batch-norm running statistics the replica evaluates
// with. NetState is that complete snapshot; Capture/Restore convert a live
// layer tree to and from it, and SyncParams is the allocation-free fast
// path used on the broadcast hot loop.
//
// Ownership rules: a NetState owns its payload slices (CaptureState copies
// out of the live tensors), so a snapshot stays valid while training
// continues. RestoreState and SyncParams copy *into* the destination's
// existing tensors and never alias source storage, so a server and its
// replicas share nothing after a sync.

// ParamState is one parameter's exported state: the value payload, the
// optional fp32 master copy, and the affine quantization grid (nil for a
// full-precision parameter).
type ParamState struct {
	Name   string
	Value  []float32
	Master []float32
	Quant  *quant.State
}

// BatchNormState is one batch-norm layer's running statistics.
type BatchNormState struct {
	Name string
	Mean []float64
	Var  []float64
}

// NetState is a complete snapshot of a network's learnable and
// normalization state.
type NetState struct {
	Params     []ParamState
	BatchNorms []BatchNormState
}

// WalkLayers visits every layer of the tree depth-first, containers before
// their children.
func WalkLayers(layers []Layer, visit func(Layer)) {
	for _, l := range layers {
		visit(l)
		if c, ok := l.(Container); ok {
			WalkLayers(c.Layers(), visit)
		}
	}
}

// CollectBatchNorms walks the layer tree for batch-norm layers in order.
func CollectBatchNorms(layers []Layer) []*BatchNorm2D {
	var out []*BatchNorm2D
	WalkLayers(layers, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			out = append(out, bn)
		}
	})
	return out
}

// CaptureState snapshots every parameter (value, master, quant grid) and
// every batch-norm layer's running statistics. The returned state shares
// no storage with the live model.
func CaptureState(layers []Layer) *NetState {
	params := CollectParams(layers)
	st := &NetState{Params: make([]ParamState, 0, len(params))}
	for _, p := range params {
		ps := ParamState{Name: p.Name, Value: append([]float32(nil), p.Value.Data()...)}
		if p.Master != nil {
			ps.Master = append([]float32(nil), p.Master.Data()...)
		}
		if p.Q != nil {
			q := *p.Q
			ps.Quant = &q
		}
		st.Params = append(st.Params, ps)
	}
	for _, bn := range CollectBatchNorms(layers) {
		mean, variance := bn.RunningStats()
		st.BatchNorms = append(st.BatchNorms, BatchNormState{Name: bn.Name(), Mean: mean, Var: variance})
	}
	return st
}

// RestoreState imports a snapshot into a model of identical architecture
// (same parameter order, names, shapes and batch-norm layers). After it
// returns, the model's learnable state is bit-identical to the snapshot.
func RestoreState(layers []Layer, st *NetState) error {
	params := CollectParams(layers)
	if len(params) != len(st.Params) {
		return fmt.Errorf("nn: restore: snapshot has %d parameters, model has %d", len(st.Params), len(params))
	}
	for i, p := range params {
		ps := &st.Params[i]
		if p.Name != ps.Name {
			return fmt.Errorf("nn: restore: parameter %d is %q, snapshot has %q", i, p.Name, ps.Name)
		}
		if len(ps.Value) != p.Value.Len() {
			return fmt.Errorf("nn: restore %s: %d values for %d elements", p.Name, len(ps.Value), p.Value.Len())
		}
		copy(p.Value.Data(), ps.Value)
		if ps.Master != nil {
			if p.Master == nil {
				p.EnableMaster()
			}
			if len(ps.Master) != p.Master.Len() {
				return fmt.Errorf("nn: restore %s: %d master values for %d elements", p.Name, len(ps.Master), p.Master.Len())
			}
			copy(p.Master.Data(), ps.Master)
		} else {
			p.Master = nil
		}
		if ps.Quant != nil {
			q := *ps.Quant
			p.Q = &q
		} else {
			p.Q = nil
		}
	}
	bns := CollectBatchNorms(layers)
	byName := make(map[string]*BatchNorm2D, len(bns))
	for _, bn := range bns {
		byName[bn.Name()] = bn
	}
	for _, bs := range st.BatchNorms {
		bn, ok := byName[bs.Name]
		if !ok {
			return fmt.Errorf("nn: restore: batch-norm %q not in model", bs.Name)
		}
		if err := bn.SetRunningStats(bs.Mean, bs.Var); err != nil {
			return fmt.Errorf("nn: restore: %w", err)
		}
	}
	return nil
}

// SyncParams copies values, master copies and quant state from src into
// dst in place — the replica-broadcast fast path, with no intermediate
// buffers. The two lists must come from identically-built models. Batch
// norm running statistics are NOT synced (they are worker-local state in
// data-parallel training); use CaptureState/RestoreState for a full clone.
func SyncParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: sync: %d parameters vs %d", len(dst), len(src))
	}
	for i, d := range dst {
		s := src[i]
		if d.Name != s.Name {
			return fmt.Errorf("nn: sync: parameter %d is %q vs %q", i, d.Name, s.Name)
		}
		if err := d.Value.CopyFrom(s.Value); err != nil {
			return fmt.Errorf("nn: sync %s: %w", d.Name, err)
		}
		if s.Master != nil {
			if d.Master == nil {
				d.Master = s.Master.Clone()
			} else if err := d.Master.CopyFrom(s.Master); err != nil {
				return fmt.Errorf("nn: sync %s master: %w", d.Name, err)
			}
		} else {
			d.Master = nil
		}
		switch {
		case s.Q == nil:
			d.Q = nil
		case d.Q == nil:
			q := *s.Q
			d.Q = &q
		default:
			*d.Q = *s.Q // in place: no allocation on the broadcast hot loop
		}
	}
	return nil
}
