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
// Besides a bare conv main branch it takes the one model block that runs
// these passes: MobileNetV2's first inverted residual at width 0.125
// (t = 1), a depthwise-BN-ReLU6 node then a conv-BN node, identity
// shortcut, no output ReLU.
func TestResidualMatchesUnfusedComposition(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	g := tensor.ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const n = 20 // 20·8·16·16 = 40960 floats: two full rectBlocks and a ragged one
	type shape struct{ relu, projected, inverted bool }
	var shapes []shape
	for _, relu := range []bool{true, false} {
		for _, projected := range []bool{false, true} {
			shapes = append(shapes, shape{relu: relu, projected: projected})
		}
	}
	shapes = append(shapes, shape{inverted: true})
	for _, c := range shapes {
		rng := tensor.NewRNG(31)
		var main Layer
		var err error
		if c.inverted {
			main = invertedMain(t, g, rng)
		} else if main, err = NewConv2D(Conv2DConfig{Name: "m", In: g, OutC: 8, RNG: rng}); err != nil {
			t.Fatal(err)
		}
		var short Layer
		if c.projected {
			pg := g
			pg.KH, pg.KW, pg.Pad = 1, 1, 0
			if short, err = NewConv2D(Conv2DConfig{Name: "s", In: pg, OutC: 8, RNG: rng}); err != nil {
				t.Fatal(err)
			}
		}
		r := NewLinearResidual("r", main, short)
		if c.relu {
			r = NewResidual("r", main, short)
		}
		if r.nodes != nil {
			t.Fatalf("%+v: the block runs its tail inside its nodes, not as passes", c)
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
		if c.relu {
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
			tag := fmt.Sprintf("%+v workers=%d: ", c, workers)
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

// invertedMain is the main branch of MobileNetV2's inverted residual at
// t = 1 on g's channels: a 3×3 depthwise conv with batch-norm and ReLU6,
// then a 1×1 conv with batch-norm and no activation.
func invertedMain(t *testing.T, g tensor.ConvGeom, rng *tensor.RNG) *Sequential {
	t.Helper()
	dw, err := NewDepthwiseConv2D("dw", g, rng)
	if err != nil {
		t.Fatal(err)
	}
	pg := g
	pg.KH, pg.KW, pg.Pad = 1, 1, 0
	proj, err := NewConv2D(Conv2DConfig{Name: "proj", In: pg, OutC: g.InC, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	var bns [2]*BatchNorm2D
	for i := range bns {
		if bns[i], err = NewBatchNorm2D(fmt.Sprintf("bn%d", i), g.InC); err != nil {
			t.Fatal(err)
		}
		// Away from γ = 1, β = 0, so ReLU6 clips at both ends.
		bns[i].gamma.Value.FillNormal(rng, 2, 1)
		bns[i].beta.Value.FillNormal(rng, 1, 2)
	}
	return NewSequential("main",
		NewConvBNAct("depthwise", dw, bns[0], NewReLU6("relu6")),
		NewConvBNAct("project", proj, bns[1], nil))
}

// residualCase is a basicBlock-shaped Residual: conv3x3-BN-ReLU then
// conv3x3-BN as ConvBNAct nodes, with a 1×1 conv + BN projection node
// when the shape changes.
type residualCase struct {
	name              string
	inC, outC, stride int
	linear            bool // NewLinearResidual: no output ReLU
}

func residualCases() []residualCase {
	var cs []residualCase
	for _, c := range []residualCase{{"identity", 8, 8, 1, false}, {"projection", 4, 8, 1, false}, {"projection-s2", 4, 8, 2, false}} {
		cs = append(cs, c)
		c.name, c.linear = c.name+"-linear", true
		cs = append(cs, c)
	}
	return cs
}

// residualHW is the input side of the residual cases: a batch of 9 spans
// two rectifier blocks at 8 channels.
const residualHW = 16

// branches builds the case's main branch and shortcut (nil: identity)
// from a fixed seed.
func (c residualCase) branches(t *testing.T) (main *Sequential, short *ConvBNAct) {
	t.Helper()
	rng := tensor.NewRNG(23)
	node := func(name string, inC, hw, k, stride int, relu bool) *ConvBNAct {
		g := tensor.ConvGeom{InC: inC, InH: hw, InW: hw, KH: k, KW: k, Stride: stride, Pad: k / 2}
		conv, err := NewConv2D(Conv2DConfig{Name: name + ".conv", In: g, OutC: c.outC, RNG: rng})
		if err != nil {
			t.Fatal(err)
		}
		bn, err := NewBatchNorm2D(name+".bn", c.outC)
		if err != nil {
			t.Fatal(err)
		}
		// Away from γ = 1, β = 0, so the block output straddles zero
		// unevenly and the shift takes part in every sum.
		bn.gamma.Value.FillNormal(rng, 1, 0.5)
		bn.beta.Value.FillNormal(rng, 0, 0.5)
		var act Layer
		if relu {
			act = NewReLU(name + ".relu")
		}
		return NewConvBNAct(name, conv, bn, act)
	}
	mid := residualHW / c.stride
	main = NewSequential("main", node("n1", c.inC, residualHW, 3, c.stride, true), node("n2", c.outC, mid, 3, 1, false))
	if c.stride != 1 || c.inC != c.outC {
		short = node("shortcut", c.inC, residualHW, 1, c.stride, false)
	}
	return main, short
}

// block builds the case as a Residual.
func (c residualCase) block(t *testing.T) *Residual {
	main, short := c.branches(t)
	var sc Layer
	if short != nil {
		sc = short
	}
	if c.linear {
		return NewLinearResidual("blk", main, sc)
	}
	return NewResidual("blk", main, sc)
}

// TestResidualMatchesFlat pins a basicBlock-shaped Residual of ConvBNAct
// nodes — identity and projection shortcut, stride 1 and 2, with and
// without the output ReLU — to its unfused chain, under both dispatches
// and at 1, 2, 3 and 8 workers: the branches run alone, then the sum and
// the rectifier by hand, dout masked by the block output by hand, each
// branch's backward, and the two input gradients summed by hand. Training
// forward output, input gradient, every parameter gradient, the batch-norm
// running statistics and the evaluation-mode forward must match byte for
// byte.
func TestResidualMatchesFlat(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	type result struct {
		out, dx, eval []float32
		grads, stats  [][]float32
	}
	for _, c := range residualCases() {
		t.Run(c.name, func(t *testing.T) {
			eachDispatch(t, func(t *testing.T) {
				x := tensor.New(9, c.inC, residualHW, residualHW)
				x.FillNormal(tensor.NewRNG(5), 0, 1)
				dout := tensor.New(9, c.outC, residualHW/c.stride, residualHW/c.stride)
				dout.FillNormal(tensor.NewRNG(6), 0, 1)
				// collect reads the gradients and running statistics of
				// the layers.
				collect := func(res *result, main, short Layer) {
					layers := []Layer{main}
					if short != nil {
						layers = append(layers, short)
					}
					for _, p := range CollectParams(layers) {
						res.grads = append(res.grads, append([]float32(nil), p.Grad.Data()...))
					}
					for _, bn := range CollectBatchNorms(layers) {
						m, v := bn.RunningStats()
						for _, s := range [][]float64{m, v} {
							f := make([]float32, 2*len(s))
							for i, u := range s {
								b := math.Float64bits(u)
								f[2*i], f[2*i+1] = math.Float32frombits(uint32(b)), math.Float32frombits(uint32(b>>32))
							}
							res.stats = append(res.stats, f)
						}
					}
				}
				fwd := func(l Layer, train bool) []float32 {
					if l == nil {
						return x.Data()
					}
					y, err := l.Forward(x, train)
					if err != nil {
						t.Fatal(err)
					}
					return append([]float32(nil), y.Data()...)
				}
				bwd := func(l Layer, d []float32) []float32 {
					if l == nil {
						return d
					}
					dx, err := l.Backward(tensor.MustFromSlice(d, dout.Shape()...))
					if err != nil {
						t.Fatal(err)
					}
					return append([]float32(nil), dx.Data()...)
				}
				join := func(my, sy []float32) []float32 {
					out := make([]float32, len(my))
					for i, v := range my {
						out[i] = v + sy[i]
						if !c.linear {
							out[i] = max(out[i], 0)
						}
					}
					return out
				}

				// The flat chain, serially.
				tensor.SetMaxWorkers(1)
				main, short := c.branches(t)
				var sc Layer
				if short != nil {
					sc = short
				}
				var want result
				want.out = join(fwd(main, true), fwd(sc, true))
				d := append([]float32(nil), dout.Data()...)
				if !c.linear {
					for i, v := range want.out {
						if v <= 0 {
							d[i] = 0
						}
					}
				}
				dmain, dshort := bwd(main, d), bwd(sc, d)
				want.dx = make([]float32, len(dmain))
				for i, v := range dmain {
					want.dx[i] = v + dshort[i]
				}
				want.eval = join(fwd(main, false), fwd(sc, false))
				collect(&want, main, sc)

				for _, workers := range []int{1, 2, 3, 8} {
					tensor.SetMaxWorkers(workers)
					r := c.block(t)
					if r.nodes == nil {
						t.Fatal("the block runs its tail as passes of its own")
					}
					var got result
					got.out = fwd(r, true)
					got.dx = bwd(r, dout.Data())
					got.eval = fwd(r, false)
					collect(&got, r, nil)
					tag := fmt.Sprintf("workers=%d: ", workers)
					sameBits(t, tag+"forward", got.out, want.out)
					sameBits(t, tag+"dx", got.dx, want.dx)
					sameBits(t, tag+"eval forward", got.eval, want.eval)
					if len(got.grads) != len(want.grads) || len(got.stats) != len(want.stats) {
						t.Fatalf("%s%d gradients and %d statistics, want %d and %d", tag, len(got.grads), len(got.stats), len(want.grads), len(want.stats))
					}
					for i, p := range CollectParams([]Layer{r}) {
						sameBits(t, tag+"grad "+p.Name, got.grads[i], want.grads[i])
					}
					for i := range want.stats {
						sameBits(t, fmt.Sprintf("%srunning statistic %d", tag, i), got.stats[i], want.stats[i])
					}
				}
			})
		})
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
