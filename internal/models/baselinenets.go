package models

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// CifarNet builds the small convnet TernGrad evaluates on (two 5×5 conv +
// pool stages followed by two hidden fully-connected layers). Widths scale
// with cfg.Width.
func CifarNet(cfg Config) (*Model, error) {
	cfg.fill()
	rng := tensor.NewRNG(cfg.Seed)
	const name = "cifarnet"
	hw := cfg.InputSize
	if hw%4 != 0 {
		return nil, fmt.Errorf("models: cifarnet input size %d must be divisible by 4", hw)
	}
	c1 := scaled(64, cfg.Width)
	b1, hw, err := convBNReLU(name+".b1", 3, c1, hw, 5, 1, 2, rng, false)
	if err != nil {
		return nil, err
	}
	p1, err := nn.NewMaxPool2D(name+".pool1", 2)
	if err != nil {
		return nil, err
	}
	hw /= 2
	b2, hw, err := convBNReLU(name+".b2", c1, c1, hw, 5, 1, 2, rng, false)
	if err != nil {
		return nil, err
	}
	p2, err := nn.NewMaxPool2D(name+".pool2", 2)
	if err != nil {
		return nil, err
	}
	hw /= 2
	flat := nn.NewFlatten(name + ".flatten")
	h1 := scaled(384, cfg.Width)
	h2 := scaled(192, cfg.Width)
	fc1, err := nn.NewLinear(name+".fc1", c1*hw*hw, h1, true, rng)
	if err != nil {
		return nil, err
	}
	fc2, err := nn.NewLinear(name+".fc2", h1, h2, true, rng)
	if err != nil {
		return nil, err
	}
	fc3, err := nn.NewLinear(name+".fc3", h2, cfg.Classes, true, rng)
	if err != nil {
		return nil, err
	}
	layers := []nn.Layer{b1, p1, b2, p2, flat,
		nn.NewConvBNAct(name+".h1", fc1, nil, nn.NewReLU(name+".relu3")),
		nn.NewConvBNAct(name+".h2", fc2, nil, nn.NewReLU(name+".relu4")), fc3}
	return &Model{
		Name: name, Net: nn.NewSequential(name, layers...),
		InC: 3, InH: cfg.InputSize, InW: cfg.InputSize, Class: cfg.Classes,
		Width: cfg.Width,
	}, nil
}

// VGGSmall builds the VGG-like backbone WAGE evaluates on: stacked
// conv3×3 pairs with max-pooling, then a fully-connected classifier. The
// number of pooling stages adapts to how many times the input size halves
// cleanly (up to the canonical three).
func VGGSmall(cfg Config) (*Model, error) {
	cfg.fill()
	rng := tensor.NewRNG(cfg.Seed)
	const name = "vggsmall"
	hw := cfg.InputSize
	stages := 0
	for s := hw; s%2 == 0 && stages < 3; s /= 2 {
		stages++
	}
	if stages == 0 {
		return nil, fmt.Errorf("models: vggsmall input size %d must be divisible by 2", hw)
	}
	widths := []int{scaled(64, cfg.Width), scaled(128, cfg.Width), scaled(256, cfg.Width)}[:stages]
	var layers []nn.Layer
	inC := 3
	for si, outC := range widths {
		for b := 0; b < 2; b++ {
			blk, outHW, err := convBNReLU(fmt.Sprintf("%s.s%db%d", name, si, b), inC, outC, hw, 3, 1, 1, rng, false)
			if err != nil {
				return nil, err
			}
			layers = append(layers, blk)
			hw = outHW
			inC = outC
		}
		pool, err := nn.NewMaxPool2D(fmt.Sprintf("%s.pool%d", name, si), 2)
		if err != nil {
			return nil, err
		}
		layers = append(layers, pool)
		hw /= 2
	}
	layers = append(layers, nn.NewFlatten(name+".flatten"))
	fc, err := nn.NewLinear(name+".fc", inC*hw*hw, cfg.Classes, true, rng)
	if err != nil {
		return nil, err
	}
	layers = append(layers, fc)
	return &Model{
		Name: name, Net: nn.NewSequential(name, layers...),
		InC: 3, InH: cfg.InputSize, InW: cfg.InputSize, Class: cfg.Classes,
		Width: cfg.Width,
	}, nil
}

// SmallCNNQuantAct is SmallCNN with every rectifier replaced by an
// ActQuant layer (quantized activations with a learnable clipping point,
// the §III-B extension): the clip parameters join the model's Params(),
// so the APT controller manages activation precision with the same Gavg
// policy it applies to weights.
func SmallCNNQuantAct(cfg Config, actBits int) (*Model, error) {
	m, err := SmallCNN(cfg)
	if err != nil {
		return nil, err
	}
	layers := m.Net.Layers()
	swapped := make([]nn.Layer, len(layers))
	n := 0
	for i, l := range layers {
		swapped[i] = l
		if node, ok := l.(*nn.ConvBNAct); ok {
			aq, err := nn.NewActQuant(fmt.Sprintf("%s.aq%d", m.Name, n), 6, actBits)
			if err != nil {
				return nil, err
			}
			swapped[i] = nn.NewConvBNAct(node.Name(), node.Op(), node.BN(), aq)
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("models: smallcnn had no rectifiers to quantize")
	}
	m.Net = nn.NewSequential(m.Name+"-qact", swapped...)
	return m, nil
}

// SmallCNN builds a compact 4-conv network used by the quickstart example
// and the fast unit tests: it trains to high accuracy on SynthCIFAR within
// seconds while still having enough layers for APT's per-layer dynamics to
// be visible.
func SmallCNN(cfg Config) (*Model, error) {
	cfg.fill()
	rng := tensor.NewRNG(cfg.Seed)
	const name = "smallcnn"
	hw := cfg.InputSize
	if hw%4 != 0 {
		return nil, fmt.Errorf("models: smallcnn input size %d must be divisible by 4", hw)
	}
	c1, c2 := scaled(16, cfg.Width), scaled(32, cfg.Width)
	b1, hw, err := convBNReLU(name+".b1", 3, c1, hw, 3, 1, 1, rng, false)
	if err != nil {
		return nil, err
	}
	b2, hw, err := convBNReLU(name+".b2", c1, c1, hw, 3, 2, 1, rng, false)
	if err != nil {
		return nil, err
	}
	b3, hw, err := convBNReLU(name+".b3", c1, c2, hw, 3, 1, 1, rng, false)
	if err != nil {
		return nil, err
	}
	b4, hw, err := convBNReLU(name+".b4", c2, c2, hw, 3, 2, 1, rng, false)
	if err != nil {
		return nil, err
	}
	_ = hw
	layers := []nn.Layer{b1, b2, b3, b4, nn.NewGlobalAvgPool(name + ".gap")}
	fc, err := nn.NewLinear(name+".fc", c2, cfg.Classes, true, rng)
	if err != nil {
		return nil, err
	}
	layers = append(layers, fc)
	return &Model{
		Name: name, Net: nn.NewSequential(name, layers...),
		InC: 3, InH: cfg.InputSize, InW: cfg.InputSize, Class: cfg.Classes,
		Width: cfg.Width,
	}, nil
}
