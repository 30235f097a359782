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
