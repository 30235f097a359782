// Package optim implements the SGD optimizer the paper trains with
// (momentum 0.9, weight decay 1e-4) and its learning-rate schedules. The
// optimizer composes the full update (momentum + weight decay + learning
// rate) before handing it to the parameter's quantized update rule, so —
// as §III-B requires — training tricks compose with APT without entering
// the Gavg metric.
package optim

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer is the interface the training loop drives: one Step per
// mini-batch (which must also clear gradients) and a schedulable learning
// rate. SGD and Adam implement it.
type Optimizer interface {
	Step(params []*nn.Param) error
	SetLR(lr float64)
}

// SGD is stochastic gradient descent with classical momentum and L2 weight
// decay. The zero value is unusable; use NewSGD.
type SGD struct {
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    map[*nn.Param]*tensor.Tensor
	// scratch holds the composed step for the quantized update path; cached
	// per parameter so steady-state steps allocate nothing.
	scratch map[*nn.Param]*tensor.Tensor
}

// NewSGD constructs the optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{
		lr:          lr,
		momentum:    momentum,
		weightDecay: weightDecay,
		velocity:    make(map[*nn.Param]*tensor.Tensor),
		scratch:     make(map[*nn.Param]*tensor.Tensor),
	}
}

// SetLR updates the learning rate (driven by a Schedule each epoch).
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Step applies one update to every parameter and zeroes the gradients.
//
// Per parameter it forms the raw step
//
//	v := momentum·v + g + weightDecay·w
//	step := lr·v
//
// and then applies w := w − step through one of three paths:
//   - fp32 parameter: plain subtraction;
//   - quantized, no master: the paper's Eq. 3 truncated update on the
//     k-bit grid, recording how many elements underflowed;
//   - quantized with fp32 master (baselines): update the master in fp32,
//     then re-quantize the working copy from it.
func (s *SGD) Step(params []*nn.Param) error {
	for _, p := range params {
		v := s.velocity[p]
		if v == nil {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p] = v
		}
		ref := p.Value
		if p.Master != nil {
			ref = p.Master
		}
		vd, gd, wd := v.Data(), p.Grad.Data(), ref.Data()
		mom := float32(s.momentum)
		wdcy := float32(s.weightDecay)
		lr := float32(s.lr)

		switch {
		case p.Q == nil || p.Q.FullPrecision():
			for i := range vd {
				vd[i] = mom*vd[i] + gd[i] + wdcy*wd[i]
				wd[i] -= lr * vd[i]
			}
			p.Underflowed = 0

		case p.Master != nil:
			// fp32 master path: full-precision accumulation, quantized view.
			for i := range vd {
				vd[i] = mom*vd[i] + gd[i] + wdcy*wd[i]
				wd[i] -= lr * vd[i]
			}
			if err := p.Value.CopyFrom(p.Master); err != nil {
				return fmt.Errorf("optim: %s: %w", p.Name, err)
			}
			p.Q.Quantize(p.Value)
			p.Underflowed = 0

		default:
			// APT path: compose the step, then apply Eq. 3 on the grid.
			step := s.scratch[p]
			if step == nil {
				step = tensor.New(p.Value.Shape()...)
				s.scratch[p] = step
			}
			sd := step.Data()
			for i := range vd {
				vd[i] = mom*vd[i] + gd[i] + wdcy*wd[i]
				sd[i] = lr * vd[i]
			}
			uf, err := p.Q.UpdateInPlace(p.Value, step)
			if err != nil {
				return fmt.Errorf("optim: %s: %w", p.Name, err)
			}
			p.Underflowed = uf
			// Track the drifting value range so ε follows the live tensor,
			// as the affine scheme re-derives S and Z per tensor.
			p.Q.Refresh(p.Value)
		}
		p.ZeroGrad()
	}
	return nil
}

// SGDVelocity is one parameter's momentum buffer in an SGDState snapshot.
type SGDVelocity struct {
	Name string
	Data []float32
}

// SGDState is a checkpointable snapshot of the optimizer: the learning
// rate and every parameter's momentum buffer, keyed by parameter name.
// Together with the model's nn.NetState it makes a mid-run training
// trajectory resumable bit-identically — momentum carries history, so
// dropping it on resume would diverge from the uninterrupted run.
type SGDState struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	Velocity    []SGDVelocity
}

// CaptureState snapshots the optimizer's state for the given parameters.
// Parameters the optimizer has never stepped contribute a zero buffer, so
// Capture → Restore round-trips regardless of when the snapshot is taken.
func (s *SGD) CaptureState(params []*nn.Param) *SGDState {
	st := &SGDState{
		LR: s.lr, Momentum: s.momentum, WeightDecay: s.weightDecay,
		Velocity: make([]SGDVelocity, 0, len(params)),
	}
	for _, p := range params {
		rec := SGDVelocity{Name: p.Name}
		if v := s.velocity[p]; v != nil {
			rec.Data = append([]float32(nil), v.Data()...)
		} else {
			rec.Data = make([]float32, p.Value.Len())
		}
		st.Velocity = append(st.Velocity, rec)
	}
	return st
}

// RestoreState imports a snapshot captured with CaptureState, binding the
// velocity buffers to params by name and order. The hyperparameters
// travel with the snapshot so a resumed run steps identically even if the
// caller constructed the optimizer with defaults.
func (s *SGD) RestoreState(params []*nn.Param, st *SGDState) error {
	if len(params) != len(st.Velocity) {
		return fmt.Errorf("optim: restore: snapshot has %d velocity buffers, model has %d parameters", len(st.Velocity), len(params))
	}
	s.lr = st.LR
	s.momentum = st.Momentum
	s.weightDecay = st.WeightDecay
	for i, p := range params {
		rec := &st.Velocity[i]
		if rec.Name != p.Name {
			return fmt.Errorf("optim: restore: buffer %d is %q, parameter is %q", i, rec.Name, p.Name)
		}
		if len(rec.Data) != p.Value.Len() {
			return fmt.Errorf("optim: restore %s: %d values for %d elements", p.Name, len(rec.Data), p.Value.Len())
		}
		v := s.velocity[p]
		if v == nil {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p] = v
		}
		copy(v.Data(), rec.Data)
	}
	return nil
}

// Schedule maps an epoch index to a learning rate.
type Schedule interface {
	LR(epoch int) float64
}

// StepSchedule is the paper's CIFAR-10 schedule: a base rate divided by 10
// at each milestone (100 and 150 in the paper's 200-epoch runs; the
// experiment profiles scale the milestones with the epoch budget).
type StepSchedule struct {
	Base       float64
	Milestones []int
	Factor     float64
}

// LR implements Schedule.
func (s StepSchedule) LR(epoch int) float64 {
	lr := s.Base
	f := s.Factor
	if f == 0 {
		f = 0.1
	}
	for _, m := range s.Milestones {
		if epoch >= m {
			lr *= f
		}
	}
	return lr
}

// WarmupSchedule is the paper's CIFAR-100 schedule: the learning rate is
// held at Warm for the first WarmEpochs epochs, then follows Inner.
type WarmupSchedule struct {
	Warm       float64
	WarmEpochs int
	Inner      Schedule
}

// LR implements Schedule.
func (s WarmupSchedule) LR(epoch int) float64 {
	if epoch < s.WarmEpochs {
		return s.Warm
	}
	return s.Inner.LR(epoch)
}

// ConstSchedule keeps a fixed learning rate.
type ConstSchedule float64

// LR implements Schedule.
func (c ConstSchedule) LR(int) float64 { return float64(c) }
