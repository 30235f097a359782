package nn

import (
	"fmt"
	"math"
	"reflect"
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

// eachDispatch runs body under the portable kernels and, where the host
// has them, under the SIMD kernels.
func eachDispatch(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	modes := []bool{false}
	if tensor.SIMDFeatures() != "" {
		modes = append(modes, true)
	}
	for _, on := range modes {
		t.Run(map[bool]string{false: "portable", true: "simd"}[on], func(t *testing.T) {
			defer tensor.SetSIMD(tensor.SetSIMD(on))
			body(t)
		})
	}
}

// convBNActCases are the node shapes: conv → BN → ReLU (run fused),
// depthwise → BN → ReLU6 (fused), linear → ReLU and a bare conv (chains).
func convBNActCases(t *testing.T) []convBNActCase {
	g := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	mustBN := func(c int) *BatchNorm2D {
		bn, err := NewBatchNorm2D("bn", c)
		if err != nil {
			t.Fatal(err)
		}
		return bn
	}
	return []convBNActCase{
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
	}
}

type convBNActCase struct {
	name      string
	shape     []int
	allocFree bool
	build     func(rng *tensor.RNG) (Layer, *BatchNorm2D, Layer, error)
}

// node builds the case as a node and as the same layers in a Sequential,
// from one seed.
func (c convBNActCase) node(t *testing.T) (node *ConvBNAct, flat *Sequential) {
	t.Helper()
	op, bn, act, err := c.build(tensor.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	node = NewConvBNAct("blk", op, bn, act)
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
	return node, NewSequential("blk", flatLayers...)
}

// TestConvBNActMatchesFlat pins a ConvBNAct node to the same layers run as
// a Sequential, under both dispatches and at 1, 2, 3 and 8 workers:
// training forward output, input gradient, every parameter gradient and
// the evaluation-mode forward byte for byte; the same CollectParams,
// CollectBatchNorms and WalkLayers order; and a warm serial
// forward+backward that allocates exactly what its layers do.
func TestConvBNActMatchesFlat(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	for _, c := range convBNActCases(t) {
		t.Run(c.name, func(t *testing.T) {
			eachDispatch(t, func(t *testing.T) {
				x := tensor.New(c.shape...)
				x.FillNormal(tensor.NewRNG(5), 0, 1)
				var dout *tensor.Tensor
				// step runs a training forward and backward and an
				// evaluation forward, and returns the four results.
				step := func(l Layer) (out, dx, eval []float32, grads [][]float32) {
					y, err := l.Forward(x, true)
					if err != nil {
						t.Fatal(err)
					}
					out = append([]float32(nil), y.Data()...)
					if dout == nil {
						dout = tensor.New(y.Shape()...)
						dout.FillNormal(tensor.NewRNG(6), 0, 1)
					}
					d, err := l.Backward(dout)
					if err != nil {
						t.Fatal(err)
					}
					dx = append([]float32(nil), d.Data()...)
					if y, err = l.Forward(x, false); err != nil {
						t.Fatal(err)
					}
					eval = append([]float32(nil), y.Data()...)
					for _, p := range CollectParams([]Layer{l}) {
						grads = append(grads, append([]float32(nil), p.Grad.Data()...))
					}
					return out, dx, eval, grads
				}
				_, flat := c.node(t)
				tensor.SetMaxWorkers(1)
				wOut, wDx, wEval, wGrads := step(flat)
				for _, workers := range []int{1, 2, 3, 8} {
					tensor.SetMaxWorkers(workers)
					node, _ := c.node(t)
					out, dx, eval, grads := step(node)
					tag := fmt.Sprintf("workers=%d: ", workers)
					sameBits(t, tag+"forward", out, wOut)
					sameBits(t, tag+"dx", dx, wDx)
					sameBits(t, tag+"eval forward", eval, wEval)
					for i, p := range CollectParams([]Layer{node}) {
						sameBits(t, tag+"grad "+p.Name, grads[i], wGrads[i])
					}
				}
				tensor.SetMaxWorkers(1)

				node, flat := c.node(t)
				np, fp := CollectParams([]Layer{node}), CollectParams([]Layer{flat})
				if len(np) != len(fp) {
					t.Fatalf("params: node %d, flat %d", len(np), len(fp))
				}
				for i := range np {
					if np[i].Name != fp[i].Name {
						t.Errorf("param %d: node %s, flat %s", i, np[i].Name, fp[i].Name)
					}
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
		})
	}
}

// TestConvBNActFusedArenas is the memory pin of the fused node, on the
// reflect walk TestConvHoldsNoBatchPatchMatrix uses: after a training step
// of a conv → BN → ReLU node the batch-norm's activation-sized buffers are
// its input-gradient arena alone, and the ReLU's are its output arena
// alone — the batch-norm's output arena and the ReLU's gradient arena hold
// nothing.
func TestConvBNActFusedArenas(t *testing.T) {
	c := convBNActCases(t)[0]
	node, _ := c.node(t)
	x := tensor.New(c.shape...)
	x.FillNormal(tensor.NewRNG(5), 0, 1)
	y, err := node.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Backward(y); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		name string
		l    Layer
		want []string
	}{{"bn", node.BN(), []string{"bn.dxA.buf"}}, {"relu", node.Act(), []string{"relu.outA.buf"}}} {
		var held []string
		float32Slices(reflect.ValueOf(l.l), l.name, map[uintptr]bool{}, func(path string, floats int) {
			if floats >= y.Len() {
				held = append(held, path)
			}
		})
		if fmt.Sprint(held) != fmt.Sprint(l.want) {
			t.Errorf("after a fused step the %s holds activation-sized buffers %v, want %v", l.name, held, l.want)
		}
	}
}

func walkNames(layers []Layer) []string {
	var names []string
	WalkLayers(layers, func(l Layer) { names = append(names, l.Name()) })
	return names
}
