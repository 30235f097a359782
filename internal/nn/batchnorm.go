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
type BatchNorm2D struct {
	name     string
	channels int
	eps      float64
	momentum float64 // running-stat update rate

	gamma *Param
	beta  *Param

	runMean []float64
	runVar  []float64

	// forward cache
	xhat  *tensor.Tensor // shaped like the input
	std   []float64
	ready bool

	outA  arenaTensor // (N, C, H, W) forward output
	xhatA arenaTensor // (N, C, H, W) normalized activations
	dxA   arenaTensor // (N, C, H, W) input gradient
	stdA  []float64   // per-channel std scratch
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

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != b.channels {
		return nil, fmt.Errorf("batchnorm %q: %w: input %v, want (N,%d,H,W)", b.name, tensor.ErrShape, x.Shape(), b.channels)
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	plane := h * w
	cnt := float64(n * plane)
	out := b.outA.get(n, b.channels, h, w)
	xd, od := x.Data(), out.Data()
	gd, bd := b.gamma.Value.Data(), b.beta.Value.Data()

	if train {
		b.xhat = b.xhatA.get(n, b.channels, h, w)
		b.std = growF64(&b.stdA, b.channels)
		b.ready = true
		xh := b.xhat.Data()
		tensor.ParallelFor(b.channels, func(c int) {
			var mean float64
			for i := 0; i < n; i++ {
				row := xd[(i*b.channels+c)*plane : (i*b.channels+c+1)*plane]
				for _, v := range row {
					mean += float64(v)
				}
			}
			mean /= cnt
			var variance float64
			for i := 0; i < n; i++ {
				row := xd[(i*b.channels+c)*plane : (i*b.channels+c+1)*plane]
				for _, v := range row {
					d := float64(v) - mean
					variance += d * d
				}
			}
			variance /= cnt
			std := math.Sqrt(variance + b.eps)
			b.std[c] = std
			b.runMean[c] = (1-b.momentum)*b.runMean[c] + b.momentum*mean
			b.runVar[c] = (1-b.momentum)*b.runVar[c] + b.momentum*variance
			g, bt := float64(gd[c]), float64(bd[c])
			for i := 0; i < n; i++ {
				off := (i*b.channels + c) * plane
				for j := 0; j < plane; j++ {
					xn := (float64(xd[off+j]) - mean) / std
					xh[off+j] = float32(xn)
					od[off+j] = float32(g*xn + bt)
				}
			}
		})
		return out, nil
	}

	tensor.ParallelFor(b.channels, func(c int) {
		mean := b.runMean[c]
		std := math.Sqrt(b.runVar[c] + b.eps)
		g, bt := float64(gd[c]), float64(bd[c])
		for i := 0; i < n; i++ {
			off := (i*b.channels + c) * plane
			for j := 0; j < plane; j++ {
				od[off+j] = float32(g*(float64(xd[off+j])-mean)/std + bt)
			}
		}
	})
	return out, nil
}

// Backward implements Layer using the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if !b.ready {
		return nil, fmt.Errorf("batchnorm %q: backward before forward", b.name)
	}
	if dout.Rank() != 4 || dout.Dim(1) != b.channels {
		return nil, fmt.Errorf("batchnorm %q: %w: dout %v", b.name, tensor.ErrShape, dout.Shape())
	}
	n, h, w := dout.Dim(0), dout.Dim(2), dout.Dim(3)
	plane := h * w
	cnt := float64(n * plane)
	dx := b.dxA.like(b.xhat)
	dd, xh, dxd := dout.Data(), b.xhat.Data(), dx.Data()
	gd := b.gamma.Value.Data()
	gg, gb := b.gamma.Grad.Data(), b.beta.Grad.Data()

	tensor.ParallelFor(b.channels, func(c int) {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			off := (i*b.channels + c) * plane
			for j := 0; j < plane; j++ {
				dy := float64(dd[off+j])
				sumDy += dy
				sumDyXhat += dy * float64(xh[off+j])
			}
		}
		gg[c] += float32(sumDyXhat)
		gb[c] += float32(sumDy)
		g := float64(gd[c])
		inv := g / (b.std[c] * cnt)
		for i := 0; i < n; i++ {
			off := (i*b.channels + c) * plane
			for j := 0; j < plane; j++ {
				dy := float64(dd[off+j])
				xn := float64(xh[off+j])
				dxd[off+j] = float32(inv * (cnt*dy - sumDy - xn*sumDyXhat))
			}
		}
	})
	b.ready = false
	return dx, nil
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
