package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestResidualMatchesUnfusedComposition pins Residual's one-pass add (and
// rectifier) forward and one-pass gradient sum backward byte for byte to
// the composition they replaced — copy the main branch, Tensor.Add the
// shortcut, rectify in place; copy dmain, Tensor.Add dshort — with and
// without the output ReLU, for an identity and a projection shortcut, at
// 1, 2 and 3 workers, on an activation that spans three rectifier blocks.
func TestResidualMatchesUnfusedComposition(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	g := tensor.ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const n = 20 // 20·8·16·16 = 40960 floats: two full rectBlocks and a ragged one
	for _, relu := range []bool{true, false} {
		for _, projected := range []bool{false, true} {
			rng := tensor.NewRNG(31)
			main, err := NewConv2D(Conv2DConfig{Name: "m", In: g, OutC: 8, RNG: rng})
			if err != nil {
				t.Fatal(err)
			}
			var short Layer
			if projected {
				pg := g
				pg.KH, pg.KW, pg.Pad = 1, 1, 0
				if short, err = NewConv2D(Conv2DConfig{Name: "s", In: pg, OutC: 8, RNG: rng}); err != nil {
					t.Fatal(err)
				}
			}
			r := NewLinearResidual("r", main, short)
			if relu {
				r = NewResidual("r", main, short)
			}
			x := tensor.New(n, 8, 16, 16)
			x.FillNormal(rng, 0, 1)
			dout := tensor.New(n, 8, 16, 16)
			dout.FillNormal(rng, 0, 1)

			// The unfused composition, serially.
			branches := func(l Layer, d *tensor.Tensor) (y, dx *tensor.Tensor) {
				if l == nil {
					return x, d
				}
				if y, err = l.Forward(x, true); err != nil {
					t.Fatal(err)
				}
				y = y.Clone()
				if dx, err = l.Backward(d); err != nil {
					t.Fatal(err)
				}
				return y, dx.Clone()
			}
			my, _ := branches(main, dout)
			sy, _ := branches(short, dout)
			wantOut := my.Clone()
			if err := wantOut.Add(sy); err != nil {
				t.Fatal(err)
			}
			d := dout.Clone()
			if relu {
				inf := float32(math.Inf(1))
				for i, v := range wantOut.Data() {
					wantOut.Data()[i] = min(max(v, 0), inf)
					if wantOut.Data()[i] <= 0 {
						d.Data()[i] = 0
					}
				}
			}
			_, dmain := branches(main, d)
			_, dshort := branches(short, d)
			wantDx := dmain.Clone()
			if err := wantDx.Add(dshort); err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 2, 3} {
				tensor.SetMaxWorkers(workers)
				out, err := r.Forward(x, true)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("relu=%v projected=%v workers=%d: ", relu, projected, workers)
				sameBits(t, tag+"out", out.Data(), wantOut.Data())
				dx, err := r.Backward(dout)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, tag+"dx", dx.Data(), wantDx.Data())
			}
			tensor.SetMaxWorkers(1)
		}
	}
}

// TestConvBNActMatchesFlat pins a ConvBNAct node to the same layers run as
// a Sequential: forward output, input gradient and every parameter
// gradient byte for byte, the same CollectParams, CollectBatchNorms and
// WalkLayers order, and a warm serial forward+backward that allocates
// nothing.
func TestConvBNActMatchesFlat(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	g := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	mustBN := func(c int) *BatchNorm2D {
		bn, err := NewBatchNorm2D("bn", c)
		if err != nil {
			t.Fatal(err)
		}
		return bn
	}
	for _, c := range []struct {
		name      string
		shape     []int
		allocFree bool
		build     func(rng *tensor.RNG) (Layer, *BatchNorm2D, Layer, error)
	}{
		{"conv-bn-relu", []int{3, 4, 8, 8}, true, func(rng *tensor.RNG) (Layer, *BatchNorm2D, Layer, error) {
			op, err := NewConv2D(Conv2DConfig{Name: "conv", In: g, OutC: 6, RNG: rng})
			return op, mustBN(6), NewReLU("relu"), err
		}},
		{"depthwise-bn-relu6", []int{3, 4, 8, 8}, false, func(rng *tensor.RNG) (Layer, *BatchNorm2D, Layer, error) {
			op, err := NewDepthwiseConv2D("dw", g, rng)
			return op, mustBN(4), NewReLU6("relu6"), err
		}},
		{"linear-relu", []int{5, 12}, true, func(rng *tensor.RNG) (Layer, *BatchNorm2D, Layer, error) {
			op, err := NewLinear("fc", 12, 7, true, rng)
			return op, nil, NewReLU("relu"), err
		}},
		{"conv", []int{3, 4, 8, 8}, true, func(rng *tensor.RNG) (Layer, *BatchNorm2D, Layer, error) {
			op, err := NewConv2D(Conv2DConfig{Name: "conv", In: g, OutC: 6, Bias: true, RNG: rng})
			return op, nil, nil, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			op, bn, act, err := c.build(tensor.NewRNG(17))
			if err != nil {
				t.Fatal(err)
			}
			node := NewConvBNAct("blk", op, bn, act)
			fop, fbn, fact, err := c.build(tensor.NewRNG(17))
			if err != nil {
				t.Fatal(err)
			}
			flatLayers := []Layer{fop}
			if fbn != nil {
				flatLayers = append(flatLayers, fbn)
			}
			if fact != nil {
				flatLayers = append(flatLayers, fact)
			}
			flat := NewSequential("blk", flatLayers...)

			rng := tensor.NewRNG(5)
			x := tensor.New(c.shape...)
			x.FillNormal(rng, 0, 1)
			var dout *tensor.Tensor
			var outs, dxs [2][]float32
			for i, l := range []Layer{node, flat} {
				y, err := l.Forward(x, true)
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = append([]float32(nil), y.Data()...)
				if dout == nil {
					dout = tensor.New(y.Shape()...)
					dout.FillNormal(rng, 0, 1)
				}
				dx, err := l.Backward(dout)
				if err != nil {
					t.Fatal(err)
				}
				dxs[i] = append([]float32(nil), dx.Data()...)
			}
			sameBits(t, "forward", outs[0], outs[1])
			sameBits(t, "dx", dxs[0], dxs[1])
			np, fp := CollectParams([]Layer{node}), CollectParams([]Layer{flat})
			if len(np) != len(fp) {
				t.Fatalf("params: node %d, flat %d", len(np), len(fp))
			}
			for i := range np {
				if np[i].Name != fp[i].Name {
					t.Errorf("param %d: node %s, flat %s", i, np[i].Name, fp[i].Name)
				}
				sameBits(t, "grad "+np[i].Name, np[i].Grad.Data(), fp[i].Grad.Data())
			}
			if nb, fb := CollectBatchNorms([]Layer{node}), CollectBatchNorms([]Layer{flat}); len(nb) != len(fb) {
				t.Errorf("batch-norms: node %d, flat %d", len(nb), len(fb))
			}
			if nw, fw := walkNames([]Layer{node}), walkNames([]Layer{flat}); fmt.Sprint(nw) != fmt.Sprint(fw) {
				t.Errorf("walk: node %v, flat %v", nw, fw)
			}

			allocs := func(l Layer) float64 {
				return testing.AllocsPerRun(10, func() {
					if _, err := l.Forward(x, true); err != nil {
						t.Fatal(err)
					}
					if _, err := l.Backward(dout); err != nil {
						t.Fatal(err)
					}
				})
			}
			// The depthwise layer's own step allocates (its pool closures);
			// the node must add nothing to what its layers allocate.
			if na, fa := allocs(node), allocs(flat); na != fa || (c.allocFree && na != 0) {
				t.Errorf("warm serial forward+backward allocates %.0f objects per step as a node, %.0f flat; want equal (0 for this op)", na, fa)
			}
		})
	}
}

func walkNames(layers []Layer) []string {
	var names []string
	WalkLayers(layers, func(l Layer) { names = append(names, l.Name()) })
	return names
}
