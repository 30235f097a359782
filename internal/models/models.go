// Package models builds the backbones the paper evaluates — ResNet-20 and
// ResNet-110 (He et al., CIFAR geometry), MobileNetV2 (Sandler et al.,
// CIFAR geometry) — plus the baselines' backbones: CifarNet (TernGrad) and
// a VGG-like network (WAGE). All builders accept a width multiplier and an
// input size so the experiment profiles can scale compute down to CPU
// minutes while preserving architecture shape (depth, stage structure,
// residual topology).
package models

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model couples a network with its input geometry. Name is the registry
// name Build accepts and Width the multiplier the backbone was built
// with; together they are the architecture header a checkpoint carries
// so loaders can rebuild the matching backbone without being told.
type Model struct {
	Name  string
	Net   *nn.Sequential
	InC   int
	InH   int
	InW   int
	Class int
	Width float64
}

// Params returns all learnable parameters of the network.
func (m *Model) Params() []*nn.Param { return m.Net.Params() }

// Layers returns the top-level layer list.
func (m *Model) Layers() []nn.Layer { return m.Net.Layers() }

// Config selects a backbone instantiation.
type Config struct {
	Classes   int     // number of output classes
	InputSize int     // spatial input size (paper: 32)
	Width     float64 // width multiplier (paper: 1.0)
	Seed      uint64  // weight-initialization seed
}

func (c *Config) fill() {
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.InputSize == 0 {
		c.InputSize = 32
	}
	if c.Width == 0 {
		c.Width = 1
	}
}

func scaled(base int, width float64) int {
	w := int(float64(base)*width + 0.5)
	if w < 4 {
		w = 4
	}
	return w
}

// convBNReLU builds one conv→BN→ReLU (ReLU6 when relu6) node named name;
// it also returns the output spatial size.
func convBNReLU(name string, inC, outC, inHW, k, stride, pad int, rng *tensor.RNG, relu6 bool) (*nn.ConvBNAct, int, error) {
	g := tensor.ConvGeom{InC: inC, InH: inHW, InW: inHW, KH: k, KW: k, Stride: stride, Pad: pad}
	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: name + ".conv", In: g, OutC: outC, RNG: rng})
	if err != nil {
		return nil, 0, err
	}
	bn, err := nn.NewBatchNorm2D(name+".bn", outC)
	if err != nil {
		return nil, 0, err
	}
	oh, _ := g.OutHW()
	act := nn.NewReLU(name + ".relu")
	if relu6 {
		act = nn.NewReLU6(name + ".relu6")
	}
	return nn.NewConvBNAct(name, conv, bn, act), oh, nil
}

// ResNet builds a CIFAR-style ResNet of the given depth (6n+2: 20, 110).
// Three stages of n basic blocks at widths {16, 32, 64}·Width, strides
// {1, 2, 2}, global average pooling and a linear classifier — exactly the
// He et al. (2016) CIFAR geometry the paper trains.
func ResNet(depth int, cfg Config) (*Model, error) {
	cfg.fill()
	if (depth-2)%6 != 0 || depth < 8 {
		return nil, fmt.Errorf("models: resnet depth %d is not 6n+2", depth)
	}
	n := (depth - 2) / 6
	rng := tensor.NewRNG(cfg.Seed)
	name := fmt.Sprintf("resnet%d", depth)

	widths := []int{scaled(16, cfg.Width), scaled(32, cfg.Width), scaled(64, cfg.Width)}
	hw := cfg.InputSize

	stem, hw, err := convBNReLU(name+".stem", 3, widths[0], hw, 3, 1, 1, rng, false)
	if err != nil {
		return nil, err
	}
	layers := []nn.Layer{stem}
	inC := widths[0]
	for stage := 0; stage < 3; stage++ {
		outC := widths[stage]
		for b := 0; b < n; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			bname := fmt.Sprintf("%s.s%db%d", name, stage+1, b)
			block, outHW, err := basicBlock(bname, inC, outC, hw, stride, rng)
			if err != nil {
				return nil, err
			}
			layers = append(layers, block)
			hw = outHW
			inC = outC
		}
	}
	layers = append(layers, nn.NewGlobalAvgPool(name+".gap"))
	fc, err := nn.NewLinear(name+".fc", inC, cfg.Classes, true, rng)
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

// basicBlock is the two-conv residual block: conv3x3-BN-ReLU-conv3x3-BN
// with a projection shortcut (1×1 conv + BN) when the shape changes.
func basicBlock(name string, inC, outC, inHW, stride int, rng *tensor.RNG) (nn.Layer, int, error) {
	g1 := tensor.ConvGeom{InC: inC, InH: inHW, InW: inHW, KH: 3, KW: 3, Stride: stride, Pad: 1}
	conv1, err := nn.NewConv2D(nn.Conv2DConfig{Name: name + ".conv1", In: g1, OutC: outC, RNG: rng})
	if err != nil {
		return nil, 0, err
	}
	bn1, err := nn.NewBatchNorm2D(name+".bn1", outC)
	if err != nil {
		return nil, 0, err
	}
	midHW, _ := g1.OutHW()
	g2 := tensor.ConvGeom{InC: outC, InH: midHW, InW: midHW, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv2, err := nn.NewConv2D(nn.Conv2DConfig{Name: name + ".conv2", In: g2, OutC: outC, RNG: rng})
	if err != nil {
		return nil, 0, err
	}
	bn2, err := nn.NewBatchNorm2D(name+".bn2", outC)
	if err != nil {
		return nil, 0, err
	}
	n1 := nn.NewConvBNAct(name+".n1", conv1, bn1, nn.NewReLU(name+".relu1"))
	n2 := nn.NewConvBNAct(name+".n2", conv2, bn2, nil)
	main := nn.NewSequential(name+".main", n1, n2)

	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		gs := tensor.ConvGeom{InC: inC, InH: inHW, InW: inHW, KH: 1, KW: 1, Stride: stride, Pad: 0}
		convS, err := nn.NewConv2D(nn.Conv2DConfig{Name: name + ".down", In: gs, OutC: outC, RNG: rng})
		if err != nil {
			return nil, 0, err
		}
		bnS, err := nn.NewBatchNorm2D(name+".downbn", outC)
		if err != nil {
			return nil, 0, err
		}
		shortcut = nn.NewConvBNAct(name+".shortcut", convS, bnS, nil)
	}
	return nn.NewResidual(name, main, shortcut), midHW, nil
}

// ResNet20 is ResNet(20, cfg).
func ResNet20(cfg Config) (*Model, error) { return ResNet(20, cfg) }

// ResNet110 is ResNet(110, cfg).
func ResNet110(cfg Config) (*Model, error) { return ResNet(110, cfg) }

// Build constructs a backbone by its command-line name — the shared
// registry behind apttrain -model and aptserve -arch (the checkpoint
// loader needs the matching architecture before models.Load can restore
// into it).
func Build(name string, cfg Config) (*Model, error) {
	switch name {
	case "resnet20":
		return ResNet20(cfg)
	case "resnet110":
		return ResNet110(cfg)
	case "mobilenetv2":
		return MobileNetV2(cfg)
	case "cifarnet":
		return CifarNet(cfg)
	case "vggsmall":
		return VGGSmall(cfg)
	case "smallcnn":
		return SmallCNN(cfg)
	default:
		return nil, fmt.Errorf("models: unknown backbone %q (want resnet20, resnet110, mobilenetv2, cifarnet, vggsmall or smallcnn)", name)
	}
}
