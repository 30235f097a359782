// Package data provides the synthetic stand-in for CIFAR-10/CIFAR-100 plus
// the paper's augmentation pipeline and a deterministic mini-batch loader.
//
// The module downloads nothing, so instead of the real CIFAR archives
// SynthCIFAR generates a procedural multi-class image-classification task
// with the same tensor geometry (3×32×32 by default, 10 or 100 classes):
// each class is defined by a deterministic texture prototype — a mixture of
// oriented sinusoidal gratings, a colour field and soft blobs — and each
// sample perturbs the prototype with instance-level jitter (phase shifts,
// blob displacement, amplitude scaling) plus pixel noise. The task is
// learnable but non-trivial: classes overlap in pixel space and separating
// them requires the convolutional features to pick up orientation and
// colour statistics, which produces the gradient dynamics (plateaus,
// per-layer heterogeneity) that drive APT; the paper's claims are about
// those dynamics, not about CIFAR accuracy itself.
//
// Determinism: NewSynth splits every sample's RNG stream serially, then
// renders the samples on the tensor worker pool, each grating's sine and
// blob's Gaussian once per pixel into a per-lane basis that every channel
// sums with the per-channel expressions: the same bytes at any worker count.
package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Dataset is a finite supervised image-classification dataset.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Sample returns the i-th image as a (C, H, W) tensor and its label.
	// Implementations may return a shared or freshly-allocated tensor;
	// callers must not mutate it.
	Sample(i int) (*tensor.Tensor, int)
	// NumClasses returns the number of distinct labels.
	NumClasses() int
}

// SynthConfig configures NewSynth.
type SynthConfig struct {
	Classes  int    // number of classes (10 for SynthCIFAR-10, 100 for -100)
	Train    int    // number of training samples
	Test     int    // number of test samples
	Size     int    // spatial size (CIFAR: 32)
	Channels int    // colour channels (CIFAR: 3)
	Seed     uint64 // master seed; all content derives from it
	// Noise is the per-pixel Gaussian noise std in [0,1] image units.
	// Higher values make the task harder. Default 0.25.
	Noise float64
}

func (c *SynthConfig) fill() {
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.Size == 0 {
		c.Size = 32
	}
	if c.Channels == 0 {
		c.Channels = 3
	}
	if c.Noise == 0 {
		c.Noise = 0.25
	}
}

// grating is one oriented sinusoid component of a class prototype.
type grating struct {
	fx, fy float64    // spatial frequency components
	phase  float64    // base phase
	amp    [3]float64 // per-channel amplitude (first Channels used)
}

// blob is one soft Gaussian bump of a class prototype.
type blob struct {
	cx, cy float64    // centre in [0,1] image coordinates
	sigma  float64    // radius
	amp    [3]float64 // per-channel amplitude
}

// classProto is the deterministic generative description of one class.
type classProto struct {
	gratings []grating
	blobs    []blob
	base     [3]float64 // per-channel DC colour
}

// Synth is the procedural SynthCIFAR dataset. It pre-generates the full
// train and test splits at construction so sampling is cheap and the
// loader stays deterministic.
type Synth struct {
	cfg    SynthConfig
	images []*tensor.Tensor
	labels []int
}

// NewSynth generates both splits and returns them as two datasets sharing
// one generative model. An error is returned for non-positive sizes.
func NewSynth(cfg SynthConfig) (train, test *Synth, err error) {
	cfg.fill()
	if cfg.Train <= 0 || cfg.Test <= 0 {
		return nil, nil, fmt.Errorf("data: non-positive split sizes train=%d test=%d", cfg.Train, cfg.Test)
	}
	if cfg.Classes < 2 {
		return nil, nil, fmt.Errorf("data: need at least 2 classes, got %d", cfg.Classes)
	}
	rng := tensor.NewRNG(cfg.Seed)
	protos := make([]classProto, cfg.Classes)
	for c := range protos {
		protos[c] = makeProto(rng.Split())
	}
	n := cfg.Train + cfg.Test // train samples, then test samples
	images, labels, streams := make([]*tensor.Tensor, n), make([]int, n), make([]tensor.RNG, n)
	for _, split := range [][2]int{{0, cfg.Train}, {cfg.Train, n}} {
		seed := rng.Split()
		for k := split[0]; k < split[1]; k++ {
			labels[k] = (k - split[0]) % cfg.Classes // balanced classes
			streams[k] = *seed.Split()
		}
	}
	per := (maxGratings + maxBlobs) * cfg.Size * cfg.Size
	basis := make([]float64, min(tensor.MaxWorkers(), n)*per)
	tensor.ParallelForWorker(n, func(k, lane int) {
		images[k] = renderSample(&protos[labels[k]], cfg, &streams[k], basis[lane*per:(lane+1)*per])
	})
	t := cfg.Train
	return &Synth{cfg: cfg, images: images[:t], labels: labels[:t]},
		&Synth{cfg: cfg, images: images[t:], labels: labels[t:]}, nil
}

const maxGratings, maxBlobs = 3, 2 // a prototype's component bounds

func makeProto(rng *tensor.RNG) classProto {
	var p classProto
	ng := 2 + rng.Intn(maxGratings-1) // 2–3 gratings
	for i := 0; i < ng; i++ {
		freq := 1.5 + 6*rng.Float64() // cycles across the image
		theta := 2 * math.Pi * rng.Float64()
		g := grating{
			fx:    freq * math.Cos(theta),
			fy:    freq * math.Sin(theta),
			phase: 2 * math.Pi * rng.Float64(),
		}
		for ch := range g.amp {
			g.amp[ch] = 0.15 + 0.25*rng.Float64()
		}
		p.gratings = append(p.gratings, g)
	}
	nb := 1 + rng.Intn(maxBlobs) // 1–2 blobs
	for i := 0; i < nb; i++ {
		b := blob{
			cx:    0.2 + 0.6*rng.Float64(),
			cy:    0.2 + 0.6*rng.Float64(),
			sigma: 0.08 + 0.12*rng.Float64(),
		}
		for ch := range b.amp {
			b.amp[ch] = (rng.Float64() - 0.5) * 0.9
		}
		p.blobs = append(p.blobs, b)
	}
	for ch := range p.base {
		p.base[ch] = 0.35 + 0.3*rng.Float64()
	}
	return p
}

// renderSample draws one instance of p, with basis as its scratch.
func renderSample(p *classProto, cfg SynthConfig, rng *tensor.RNG, basis []float64) *tensor.Tensor {
	sz := cfg.Size
	img := tensor.New(cfg.Channels, sz, sz)
	d := img.Data()
	// Instance jitter: phase offsets, blob displacement, amplitude scale.
	var phaseJit [maxGratings]float64
	for i := range p.gratings {
		phaseJit[i] = (rng.Float64() - 0.5) * 1.2
	}
	var dxs, dys [maxBlobs]float64
	for i := range p.blobs {
		dxs[i] = (rng.Float64() - 0.5) * 0.15
		dys[i] = (rng.Float64() - 0.5) * 0.15
	}
	ampScale := 0.8 + 0.4*rng.Float64()

	// One basis plane of sz² pixels per grating's sine, then per blob's Gaussian.
	px, ng, inv := sz*sz, len(p.gratings), 1/float64(sz)
	for y := 0; y < sz; y++ {
		fy := float64(y) * inv
		for x := 0; x < sz; x++ {
			fx := float64(x) * inv
			for gi, g := range p.gratings {
				basis[gi*px+y*sz+x] = math.Sin(2*math.Pi*(g.fx*fx+g.fy*fy) + g.phase + phaseJit[gi])
			}
			for bi, b := range p.blobs {
				ddx := fx - (b.cx + dxs[bi])
				ddy := fy - (b.cy + dys[bi])
				basis[(ng+bi)*px+y*sz+x] = math.Exp(-(ddx*ddx + ddy*ddy) / (2 * b.sigma * b.sigma))
			}
		}
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		for k := 0; k < px; k++ {
			v := p.base[ch%3]
			for gi, g := range p.gratings {
				v += ampScale * g.amp[ch%3] * basis[gi*px+k]
			}
			for bi, b := range p.blobs {
				v += b.amp[ch%3] * basis[(ng+bi)*px+k]
			}
			d[ch*px+k] = float32(v)
		}
	}
	// Pixel noise, then normalise roughly to zero mean unit-ish scale,
	// mirroring the mean/std normalisation of CIFAR pipelines.
	noise := float32(cfg.Noise)
	for i := range d {
		d[i] += noise * float32(rng.Norm())
		d[i] = (d[i] - 0.5) * 2
	}
	return img
}

// Len implements Dataset.
func (s *Synth) Len() int { return len(s.images) }

// NumClasses implements Dataset.
func (s *Synth) NumClasses() int { return s.cfg.Classes }

// Sample implements Dataset.
func (s *Synth) Sample(i int) (*tensor.Tensor, int) {
	return s.images[i], s.labels[i]
}
