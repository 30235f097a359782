package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch (Ioffe & Szegedy),
// with learnable per-channel scale (gamma) and shift (beta) and running
// statistics for evaluation mode. The paper trains all backbones with BN
// and no dropout.
//
// Every pass is one ParallelFor over channels, each channel one call of a
// tensor channel kernel (tensor.ChannelMoments / ChannelAffine /
// ChannelGradSums / ChannelGradInput), so results do not depend on the
// worker count. The output is y = float32(x·scale) + shift with the
// per-channel scale = γ·invstd and shift = β − mean·scale. No normalized
// copy x̂ is stored: a training Forward keeps its input by reference (the
// PERF.md arena rule 6) and the channel's mean and inverse standard
// deviation, and Backward recomputes x − mean from them.
type BatchNorm2D struct {
	name     string
	channels int
	eps      float64
	momentum float64 // running-stat update rate

	gamma *Param
	beta  *Param

	runMean []float64
	runVar  []float64

	// forward cache: the input of the last training Forward, nil once
	// Backward consumed it, and its per-channel batch statistics
	x      *tensor.Tensor
	mean   []float64
	invstd []float64

	outA arenaTensor // (N, C, H, W) forward output
	dxA  arenaTensor // (N, C, H, W) input gradient
}

// NewBatchNorm2D constructs a batch-norm layer for the given channel count.
func NewBatchNorm2D(name string, channels int) (*BatchNorm2D, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("batchnorm %q: %w: channels %d", name, tensor.ErrShape, channels)
	}
	g := tensor.New(channels)
	g.Fill(1)
	b := &BatchNorm2D{
		name:     name,
		channels: channels,
		eps:      1e-5,
		momentum: 0.1,
		gamma:    NewParam(name+".gamma", g),
		beta:     NewParam(name+".beta", tensor.New(channels)),
		runMean:  make([]float64, channels),
		runVar:   make([]float64, channels),
		mean:     make([]float64, channels),
		invstd:   make([]float64, channels),
	}
	for i := range b.runVar {
		b.runVar[i] = 1
	}
	return b, nil
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.gamma, b.beta} }

// Forward implements Layer. A training pass normalizes with the batch
// statistics and updates the running ones; an evaluation pass normalizes
// with the running statistics and keeps nothing for Backward.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != b.channels {
		return nil, fmt.Errorf("batchnorm %q: %w: input %v, want (N,%d,H,W)", b.name, tensor.ErrShape, x.Shape(), b.channels)
	}
	out := b.outA.like(x)
	b.x = nil
	if train {
		b.x = x
	}
	forChunks(b.channels, bnForward{b: b, x: x.Data(), y: out.Data(), n: x.Dim(0), plane: x.Dim(2) * x.Dim(3), train: train})
	return out, nil
}

// bnForward is the forward pass of one channel.
type bnForward struct {
	b        *BatchNorm2D
	x, y     []float32
	n, plane int
	train    bool
}

func (f bnForward) run(c int) {
	b := f.b
	stride, o := b.channels*f.plane, c*f.plane
	mean, variance := b.runMean[c], b.runVar[c]
	if f.train {
		mean, variance = tensor.ChannelMoments(f.x[o:], f.n, f.plane, stride)
		b.runMean[c] = (1-b.momentum)*b.runMean[c] + b.momentum*mean
		b.runVar[c] = (1-b.momentum)*b.runVar[c] + b.momentum*variance
	}
	invstd := 1 / math.Sqrt(variance+b.eps)
	if f.train {
		b.mean[c], b.invstd[c] = mean, invstd
	}
	scale := float32(float64(b.gamma.Value.Data()[c]) * invstd)
	shift := float32(float64(b.beta.Value.Data()[c]) - mean*float64(scale))
	tensor.ChannelAffine(f.y[o:], f.x[o:], f.n, f.plane, stride, scale, shift)
}

// Backward implements Layer using the standard batch-norm gradient, with
// x̂ = (x − mean)·invstd recomputed from the retained input.
func (b *BatchNorm2D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	x := b.x
	if x == nil {
		return nil, fmt.Errorf("batchnorm %q: backward before forward", b.name)
	}
	if !dout.SameShape(x) {
		return nil, fmt.Errorf("batchnorm %q: %w: dout %v, want %v", b.name, tensor.ErrShape, dout.Shape(), x.Shape())
	}
	dx := b.dxA.like(x)
	forChunks(b.channels, bnBackward{b: b, x: x.Data(), dy: dout.Data(), dx: dx.Data(), n: x.Dim(0), plane: x.Dim(2) * x.Dim(3)})
	b.x = nil
	return dx, nil
}

// bnBackward is the backward pass of one channel: the two gradient sums,
// the parameter gradients, then the input gradient
// dx = γ·invstd·((dy − Σdy/cnt) − (x − mean)·invstd²·Σdy(x−mean)/cnt).
type bnBackward struct {
	b         *BatchNorm2D
	x, dy, dx []float32
	n, plane  int
}

func (j bnBackward) run(c int) {
	b := j.b
	stride, o := b.channels*j.plane, c*j.plane
	cnt := float64(j.n * j.plane)
	mean, invstd := b.mean[c], b.invstd[c]
	sumDy, sumDyXc := tensor.ChannelGradSums(j.dy[o:], j.x[o:], j.n, j.plane, stride, mean)
	b.gamma.Grad.Data()[c] += float32(invstd * sumDyXc)
	b.beta.Grad.Data()[c] += float32(sumDy)
	a := float64(b.gamma.Value.Data()[c]) * invstd
	k := invstd * invstd * sumDyXc / cnt
	tensor.ChannelGradInput(j.dx[o:], j.dy[o:], j.x[o:], j.n, j.plane, stride,
		float32(mean), float32(sumDy/cnt), float32(k), float32(a))
}

// RunningStats exposes the per-channel running mean and variance (used by
// checkpointing and tests).
func (b *BatchNorm2D) RunningStats() (mean, variance []float64) {
	m := make([]float64, b.channels)
	v := make([]float64, b.channels)
	copy(m, b.runMean)
	copy(v, b.runVar)
	return m, v
}

// SetRunningStats restores the per-channel running statistics (used when
// loading a checkpoint). Slice lengths must match the channel count.
func (b *BatchNorm2D) SetRunningStats(mean, variance []float64) error {
	if len(mean) != b.channels || len(variance) != b.channels {
		return fmt.Errorf("batchnorm %q: stats length (%d, %d) != channels %d",
			b.name, len(mean), len(variance), b.channels)
	}
	copy(b.runMean, mean)
	copy(b.runVar, variance)
	return nil
}
