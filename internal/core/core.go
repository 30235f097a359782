// Package core implements the paper's contribution: Adaptive Precision
// Training. It profiles each learnable tensor's quantization-underflow
// metric Gavg (Eq. 4) during training, smooths it with a moving average
// (Algorithm 2, line 8), and between epochs applies the precision
// adjustment policy (Algorithm 1): raise a layer's bitwidth when its Gavg
// falls below Tmin (the layer is starving — most updates underflow) and
// lower it when Gavg exceeds Tmax (the layer is over-provisioned).
//
// The controller owns no training state of its own beyond the per-layer
// moving averages and traces; it observes nn.Param objects and mutates
// only their bitwidth.
package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/quant"
)

// Config parameterizes APT. The zero value is not useful; use
// DefaultConfig and override fields.
type Config struct {
	// InitBits is the bitwidth every layer starts at (the paper uses 6
	// throughout and shows the choice is not critical). The policy keeps
	// every layer within [quant.MinBits, quant.MaxBits], Algorithm 1's
	// [2, 32].
	InitBits int
	// Tmin is the lower Gavg threshold: below it a layer gains a bit.
	// This is the paper's application-specific knob (§IV uses 6.0 for the
	// headline results and sweeps 0.1–100 in Figure 5).
	Tmin float64
	// Tmax is the upper threshold: above it a layer loses a bit. The
	// paper's headline setting is +Inf (never reduce).
	Tmax float64
	// Interval is the profiling period in iterations (Algorithm 2 line 6):
	// Gavg is evaluated every Interval-th iteration.
	Interval int
	// EMADecay is the smoothing factor for the moving average on Gavg:
	// avg ← (1−EMADecay)·avg + EMADecay·sample.
	EMADecay float64
	// Step is the per-adjustment bitwidth increment (1 in Algorithm 1;
	// the ablation benchmarks vary it).
	Step int
	// Metric selects the underflow statistic: MetricGavg is the paper's
	// Eq. 4; MetricUnderflowFraction is the ablation alternative.
	Metric Metric
}

// Metric selects which per-layer statistic drives the policy.
type Metric int

// Metric values.
const (
	// MetricGavg is the paper's Eq. 4: mean |g/ε|. Larger is healthier.
	MetricGavg Metric = iota
	// MetricUnderflowFraction is 1 − fraction of underflowing elements,
	// rescaled so the same Tmin/Tmax semantics apply (larger = healthier).
	MetricUnderflowFraction
)

// DefaultConfig returns the paper's experimental setting: start at 6 bits,
// (Tmin, Tmax) = (6.0, +Inf), profile a few times per epoch.
func DefaultConfig() Config {
	return Config{
		InitBits: 6,
		Tmin:     6.0,
		Tmax:     math.Inf(1),
		Interval: 10,
		EMADecay: 0.3,
		Step:     1,
		Metric:   MetricGavg,
	}
}

// ProfileInterval is Algorithm 2's profiling period, in iterations, for
// an epoch of the given number of samples in mini-batches of batchSize:
// "a few times in each epoch suffice", so four profiles per epoch, at
// least one iteration apart.
func ProfileInterval(samples, batchSize int) int {
	batches := (samples + batchSize - 1) / batchSize
	return max(1, batches/4)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.InitBits < quant.MinBits || c.InitBits > quant.MaxBits {
		return fmt.Errorf("core: init bits %d outside [%d, %d]", c.InitBits, quant.MinBits, quant.MaxBits)
	}
	if c.Tmin >= c.Tmax {
		return fmt.Errorf("core: Tmin %g must be below Tmax %g", c.Tmin, c.Tmax)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("core: non-positive interval %d", c.Interval)
	}
	if c.EMADecay <= 0 || c.EMADecay > 1 {
		return fmt.Errorf("core: EMA decay %g outside (0, 1]", c.EMADecay)
	}
	if c.Step <= 0 {
		return fmt.Errorf("core: non-positive step %d", c.Step)
	}
	return nil
}

// Change records one policy decision for tracing.
type Change struct {
	Param string
	From  int
	To    int
	Gavg  float64
}

// Controller drives APT for one training run.
type Controller struct {
	cfg    Config
	params []*nn.Param
	avg    map[*nn.Param]float64
	seen   map[*nn.Param]bool
	iter   int

	// traces, appended per ObserveBatch/AdjustEpoch for the experiment
	// harness (Figures 1 and 3).
	gavgTrace map[string][]float64
	bitsTrace map[string][]int
}

// NewController initializes every parameter to cfg.InitBits (Algorithm 2
// line 1) and returns the controller. Parameters already carrying a
// master copy are left untouched (the controller manages APT-mode
// parameters only).
func NewController(cfg Config, params []*nn.Param) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		params:    params,
		avg:       make(map[*nn.Param]float64, len(params)),
		seen:      make(map[*nn.Param]bool, len(params)),
		gavgTrace: make(map[string][]float64),
		bitsTrace: make(map[string][]int),
	}
	for _, p := range params {
		if err := p.SetBits(cfg.InitBits); err != nil {
			return nil, fmt.Errorf("core: %s: %w", p.Name, err)
		}
	}
	return c, nil
}

// ObserveBatch implements Algorithm 2 lines 6–9: on every Interval-th
// call it evaluates the metric on the current gradients and folds it into
// the per-layer moving average. Call it once per iteration, after the
// backward pass and before the optimizer clears gradients.
func (c *Controller) ObserveBatch() {
	c.iter++
	if (c.iter-1)%c.cfg.Interval != 0 {
		return
	}
	for _, p := range c.params {
		sample := c.metric(p)
		if !c.seen[p] {
			c.avg[p] = sample
			c.seen[p] = true
			continue
		}
		c.avg[p] = (1-c.cfg.EMADecay)*c.avg[p] + c.cfg.EMADecay*sample
	}
}

func (c *Controller) metric(p *nn.Param) float64 {
	switch c.cfg.Metric {
	case MetricUnderflowFraction:
		eps := p.Eps()
		if eps == 0 {
			return quant.GavgFullPrecision
		}
		// Map "fraction of healthy elements" onto the Gavg threshold
		// scale: healthy-fraction / (1 − healthy-fraction), which grows
		// without bound as underflow vanishes.
		uf := quant.UnderflowFraction(p.Grad, eps)
		healthy := 1 - uf
		if healthy >= 1 {
			return quant.GavgFullPrecision
		}
		return healthy / (1 - healthy)
	default:
		return p.Gavg()
	}
}

// Gavg returns the current moving-average metric for a parameter (0 when
// never observed).
func (c *Controller) Gavg(p *nn.Param) float64 { return c.avg[p] }

// AdjustEpoch implements Algorithm 1 at an epoch boundary: every
// parameter whose smoothed metric is below Tmin gains Step bits (up to
// quant.MaxBits) and every parameter above Tmax loses Step bits (down to
// quant.MinBits). It records traces and returns the changes made.
func (c *Controller) AdjustEpoch() ([]Change, error) {
	var changes []Change
	for _, p := range c.params {
		g := c.avg[p]
		if !c.seen[p] {
			// Never observed this epoch window: record the full-precision
			// sentinel, not 0 — a 0 would plot as "maximally starving" in
			// the Figure 1 harness and could be picked as the starved
			// layer. The adjustment below is already gated on seen.
			g = quant.GavgFullPrecision
		}
		c.gavgTrace[p.Name] = append(c.gavgTrace[p.Name], g)
		k := p.Bits()
		next := k
		if c.seen[p] {
			if g < c.cfg.Tmin && k < quant.MaxBits {
				next = min(k+c.cfg.Step, quant.MaxBits)
			}
			if g > c.cfg.Tmax && k > quant.MinBits {
				next = max(k-c.cfg.Step, quant.MinBits)
			}
		}
		if next != k {
			if err := p.SetBits(next); err != nil {
				return nil, fmt.Errorf("core: %s: %w", p.Name, err)
			}
			changes = append(changes, Change{Param: p.Name, From: k, To: next, Gavg: g})
		}
		c.bitsTrace[p.Name] = append(c.bitsTrace[p.Name], p.Bits())
	}
	return changes, nil
}

// GavgTrace returns the per-epoch moving-average Gavg recorded for a
// parameter name (Figure 1).
func (c *Controller) GavgTrace(name string) []float64 { return c.gavgTrace[name] }

// BitsTrace returns the per-epoch bitwidth recorded for a parameter name
// (Figure 3).
func (c *Controller) BitsTrace(name string) []int { return c.bitsTrace[name] }

// TracedParams returns the names of all parameters the controller manages,
// in order.
func (c *Controller) TracedParams() []string {
	names := make([]string, 0, len(c.params))
	for _, p := range c.params {
		names = append(names, p.Name)
	}
	return names
}

// MeanBits returns the parameter-count-weighted mean bitwidth across the
// managed parameters — a single-number summary of the precision state.
func (c *Controller) MeanBits() float64 {
	var bits, n float64
	for _, p := range c.params {
		w := float64(p.Value.Len())
		bits += w * float64(p.Bits())
		n += w
	}
	if n == 0 {
		return 0
	}
	return bits / n
}
