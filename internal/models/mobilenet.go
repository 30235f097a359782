package models

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// mbSetting is one (expansion t, channels c, repeats n, stride s) row of
// the MobileNetV2 architecture table.
type mbSetting struct {
	t, c, n, s int
}

// mobilenetV2CIFAR is the CIFAR adaptation of Sandler et al.'s table: the
// stem and the first strided stage run at stride 1 so a 32×32 input ends
// at 4×4 rather than collapsing to zero.
var mobilenetV2CIFAR = []mbSetting{
	{1, 16, 1, 1},
	{6, 24, 2, 1},
	{6, 32, 3, 2},
	{6, 64, 4, 2},
	{6, 96, 3, 1},
	{6, 160, 3, 2},
	{6, 320, 1, 1},
}

// MobileNetV2 builds the CIFAR-geometry MobileNetV2 with inverted
// residuals and linear bottlenecks, width-scalable via cfg.Width.
func MobileNetV2(cfg Config) (*Model, error) {
	cfg.fill()
	rng := tensor.NewRNG(cfg.Seed)
	const name = "mobilenetv2"

	hw := cfg.InputSize
	stemC := scaled(32, cfg.Width)
	stem, hw, err := convBNReLU(name+".stem", 3, stemC, hw, 3, 1, 1, rng, true)
	if err != nil {
		return nil, err
	}
	layers := []nn.Layer{stem}
	inC := stemC
	for si, st := range mobilenetV2CIFAR {
		outC := scaled(st.c, cfg.Width)
		for b := 0; b < st.n; b++ {
			stride := 1
			if b == 0 {
				stride = st.s
			}
			bname := fmt.Sprintf("%s.ir%d_%d", name, si, b)
			block, outHW, err := invertedResidual(bname, inC, outC, hw, stride, st.t, rng)
			if err != nil {
				return nil, err
			}
			layers = append(layers, block)
			hw = outHW
			inC = outC
		}
	}
	headC := scaled(1280, cfg.Width)
	head, hw, err := convBNReLU(name+".head", inC, headC, hw, 1, 1, 0, rng, true)
	if err != nil {
		return nil, err
	}
	layers = append(layers, head, nn.NewGlobalAvgPool(name+".gap"))
	fc, err := nn.NewLinear(name+".fc", headC, cfg.Classes, true, rng)
	if err != nil {
		return nil, err
	}
	layers = append(layers, fc)
	_ = hw
	return &Model{
		Name: name, Net: nn.NewSequential(name, layers...),
		InC: 3, InH: cfg.InputSize, InW: cfg.InputSize, Class: cfg.Classes,
		Width: cfg.Width,
	}, nil
}

// invertedResidual is the MBConv block: 1×1 expansion (t×) + BN + ReLU6,
// 3×3 depthwise (stride s) + BN + ReLU6, 1×1 linear projection + BN, with
// an identity skip when the shape is preserved.
func invertedResidual(name string, inC, outC, inHW, stride, expand int, rng *tensor.RNG) (nn.Layer, int, error) {
	var main []nn.Layer
	midC := inC * expand
	hw := inHW
	if expand != 1 {
		exp, outHW, err := convBNReLU(name+".expand", inC, midC, hw, 1, 1, 0, rng, true)
		if err != nil {
			return nil, 0, err
		}
		main = append(main, exp)
		hw = outHW
	}
	gdw := tensor.ConvGeom{InC: midC, InH: hw, InW: hw, KH: 3, KW: 3, Stride: stride, Pad: 1}
	dw, err := nn.NewDepthwiseConv2D(name+".dw", gdw, rng)
	if err != nil {
		return nil, 0, err
	}
	bnDW, err := nn.NewBatchNorm2D(name+".dwbn", midC)
	if err != nil {
		return nil, 0, err
	}
	hw, _ = gdw.OutHW()
	main = append(main, nn.NewConvBNAct(name+".depthwise", dw, bnDW, nn.NewReLU6(name+".dwrelu6")))

	gproj := tensor.ConvGeom{InC: midC, InH: hw, InW: hw, KH: 1, KW: 1, Stride: 1, Pad: 0}
	proj, err := nn.NewConv2D(nn.Conv2DConfig{Name: name + ".proj", In: gproj, OutC: outC, RNG: rng})
	if err != nil {
		return nil, 0, err
	}
	bnProj, err := nn.NewBatchNorm2D(name+".projbn", outC)
	if err != nil {
		return nil, 0, err
	}
	main = append(main, nn.NewConvBNAct(name+".project", proj, bnProj, nil))
	seq := nn.NewSequential(name+".main", main...)

	if stride == 1 && inC == outC {
		return nn.NewLinearResidual(name, seq, nil), hw, nil
	}
	return seq, hw, nil
}
