package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// convBandCase is one band-conv problem: random input, weights, bias and
// upstream gradient drawn from a seed.
type convBandCase struct {
	g                     ConvGeom
	n, outC               int
	x, w, bias, dout      []float32
	plan                  *ConvPlanF32
	out, dx, gw, gb       []float32 // results of run
	inSz, s, kdim, outLen int
}

func newConvBandCase(t testing.TB, seed int64, g ConvGeom, n, outC int) *convBandCase {
	t.Helper()
	plan, err := NewConvPlanF32(g, outC)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := g.OutHW()
	c := &convBandCase{g: g, n: n, outC: outC, plan: plan,
		inSz: g.InC * g.InH * g.InW, s: oh * ow, kdim: g.InC * g.KH * g.KW}
	c.outLen = n * outC * c.s
	rng := rand.New(rand.NewSource(seed))
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	c.x, c.w, c.bias, c.dout = fill(n*c.inSz), fill(outC*c.kdim), fill(outC), fill(c.outLen)
	return c
}

// run executes forward and backward into fresh result buffers (gradients
// start at zero) with the given scratch.
func (c *convBandCase) run(t testing.TB, sc *ConvScratchF32) {
	t.Helper()
	c.out, c.dx = make([]float32, c.outLen), make([]float32, len(c.x))
	c.gw, c.gb = make([]float32, len(c.w)), make([]float32, c.outC)
	if err := ConvF32ForwardInto(c.out, c.x, c.n, c.w, c.bias, c.plan, sc); err != nil {
		t.Fatal(err)
	}
	if err := ConvF32BackwardInto(c.dx, c.gw, c.gb, c.x, c.dout, c.n, c.w, c.plan, sc, Skip{}); err != nil {
		t.Fatal(err)
	}
}

// direct is the forward pass through ConvDirect, sample by sample.
func (c *convBandCase) direct(t testing.TB) []float32 {
	t.Helper()
	wt := MustFromSlice(c.w, c.outC, c.g.InC, c.g.KH, c.g.KW)
	out := make([]float32, 0, c.outLen)
	for i := 0; i < c.n; i++ {
		y, err := ConvDirect(MustFromSlice(c.x[i*c.inSz:(i+1)*c.inSz], c.g.InC, c.g.InH, c.g.InW), wt, c.g)
		if err != nil {
			t.Fatal(err)
		}
		for oc := 0; oc < c.outC; oc++ {
			for _, v := range y.Data()[oc*c.s : (oc+1)*c.s] {
				out = append(out, v+c.bias[oc])
			}
		}
	}
	return out
}

// loss is <conv(x, w) + bias, dout> by naive tap enumeration in float64:
// linear in each argument, so a central difference of it is the exact
// gradient up to the rounding of the float32 operands.
func (c *convBandCase) loss() float64 {
	g := c.g
	oh, ow := g.OutHW()
	var l float64
	for i := 0; i < c.n; i++ {
		for oc := 0; oc < c.outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := float64(c.bias[oc])
					for ch := 0; ch < g.InC; ch++ {
						for kh := 0; kh < g.KH; kh++ {
							for kw := 0; kw < g.KW; kw++ {
								iy, ix := oy*g.Stride+kh-g.Pad, ox*g.Stride+kw-g.Pad
								if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
									acc += float64(c.x[i*c.inSz+(ch*g.InH+iy)*g.InW+ix]) *
										float64(c.w[oc*c.kdim+(ch*g.KH+kh)*g.KW+kw])
								}
							}
						}
					}
					l += acc * float64(c.dout[((i*c.outC+oc)*oh+oy)*ow+ox])
				}
			}
		}
	}
	return l
}

// checkConvBandVsDirect is the differential both the geometry table and
// the fuzz target run: the band forward against ConvDirect, and sampled
// coordinates of dx, dW and the bias gradient against central differences
// of the naive float64 loss.
func checkConvBandVsDirect(t *testing.T, seed int64, g ConvGeom, n, outC int) {
	t.Helper()
	c := newConvBandCase(t, seed, g, n, outC)
	c.run(t, &ConvScratchF32{})
	tol := func(k int) float64 { return 2e-5 * float64(k+8) }
	for i, want := range c.direct(t) {
		if d := math.Abs(float64(c.out[i] - want)); d > tol(c.kdim)*math.Max(1, math.Abs(float64(want))) {
			t.Fatalf("%+v n=%d outC=%d: out[%d] = %g, direct %g", g, n, outC, i, c.out[i], want)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1))
	fd := func(name string, v []float32, grad []float32, terms int) {
		for trial := 0; trial < 4; trial++ {
			i := rng.Intn(len(v))
			keep := v[i]
			v[i] = keep + 1
			up := c.loss()
			v[i] = keep - 1
			down := c.loss()
			v[i] = keep
			want := (up - down) / 2
			if d := math.Abs(float64(grad[i]) - want); d > 5e-4*float64(terms+8)*math.Max(1, math.Abs(want)) {
				t.Fatalf("%+v n=%d outC=%d: %s[%d] = %g, finite difference %g", g, n, outC, name, i, grad[i], want)
			}
		}
	}
	fd("dx", c.x, c.dx, outC*g.KH*g.KW)
	fd("dW", c.w, c.gw, n*c.s)
	fd("db", c.bias, c.gb, n*c.s)
}

// TestConvBandGeometryTable walks the shapes the band driver must not
// special-case wrong: strides, no padding, 1×1 and 5×5 kernels, output
// planes that are not a multiple of the panel width, batches that are not
// a multiple of the band, and a batch of one.
func TestConvBandGeometryTable(t *testing.T) {
	cases := []struct {
		g       ConvGeom
		n, outC int
	}{
		{ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, 16}, // one sample per band
		{ConvGeom{InC: 4, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 19, 8},   // band 16, ragged tail of 3
		{ConvGeom{InC: 2, InH: 9, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 0}, 5, 5},    // 4×3 outputs, pad 0
		{ConvGeom{InC: 5, InH: 6, InW: 6, KH: 1, KW: 1, Stride: 1, Pad: 0}, 9, 20},   // 1×1, 36 positions
		{ConvGeom{InC: 3, InH: 12, InW: 12, KH: 1, KW: 1, Stride: 2, Pad: 0}, 4, 7},  // shortcut conv
		{ConvGeom{InC: 2, InH: 11, InW: 11, KH: 5, KW: 5, Stride: 1, Pad: 2}, 3, 9},  // 5×5, 121 positions
		{ConvGeom{InC: 1, InH: 5, InW: 9, KH: 3, KW: 5, Stride: 1, Pad: 2}, 7, 3},    // non-square kernel
		{ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, 1, 12}, // batch 1, 144 positions
		{ConvGeom{InC: 2, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}, 70, 4},   // 4 positions, band 64 + 6
		{ConvGeom{InC: 1, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 3, Pad: 2}, 2, 1},    // taps entirely in padding
		{ConvGeom{InC: 3, InH: 5, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 9, 6},    // OW 8: bands of 7 (a dead half) + 2
		{ConvGeom{InC: 2, InH: 4, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 6, 5},   // OW 16: bands of 4 + 2
		{ConvGeom{InC: 2, InH: 3, InW: 24, KH: 3, KW: 3, Stride: 1, Pad: 1}, 5, 3},   // OW 24: bands of 4 + 1 (a dead half)
		{ConvGeom{InC: 1, InH: 6, InW: 12, KH: 5, KW: 5, Stride: 1, Pad: 0}, 3, 2},   // OW 8 from a 5×5 without padding
	}
	eachDispatch(t, func(t *testing.T) {
		for i, c := range cases {
			checkConvBandVsDirect(t, int64(100+i), c.g, c.n, c.outC)
		}
	})
}

// fuzzConvBandGeom maps fuzz bytes onto a small band-conv problem.
func fuzzConvBandGeom(inC, inH, inW, kh, kw, stride, pad, n, outC uint8) (ConvGeom, int, int) {
	g := ConvGeom{
		InC: 1 + int(inC%4), InH: 1 + int(inH%12), InW: 1 + int(inW%24),
		KH: 1 + int(kh%5), KW: 1 + int(kw%5),
		Stride: 1 + int(stride%3), Pad: int(pad % 3),
	}
	return g, 1 + int(n%40), 1 + int(outC%20)
}

// FuzzConvBandVsDirect drives fuzzed geometries, batch sizes and payloads
// through the band-vs-direct differential under both dispatches. Plain
// `go test` replays the seeds below and the committed corpus in
// testdata/fuzz; CI also mutates for a bounded -fuzztime.
func FuzzConvBandVsDirect(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 24; trial++ {
		var b [9]uint8
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		f.Add(rng.Int63(), b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8])
	}
	// Stride 2 on the phase strip and the per-phase dx route: 3×3 pad 1 at
	// OW 8 and at OW 4 (quarters), and a 1×1 projection at OW 8.
	f.Add(int64(41), uint8(2), uint8(7), uint8(15), uint8(2), uint8(2), uint8(1), uint8(1), uint8(5), uint8(7))
	f.Add(int64(42), uint8(3), uint8(7), uint8(7), uint8(2), uint8(2), uint8(1), uint8(1), uint8(19), uint8(4))
	f.Add(int64(43), uint8(3), uint8(5), uint8(15), uint8(0), uint8(0), uint8(1), uint8(0), uint8(9), uint8(5))
	// Output rows padded to whole 4-column runs, forward and dx: OW 2, 3,
	// 5, 6 and 7 at stride 1 (3×3, 5×5 and 1×1) and at stride 2, where
	// the dx drain interleaves OW%4 tail columns.
	f.Add(int64(51), uint8(1), uint8(3), uint8(1), uint8(2), uint8(2), uint8(0), uint8(1), uint8(6), uint8(4))
	f.Add(int64(52), uint8(2), uint8(2), uint8(2), uint8(2), uint8(2), uint8(0), uint8(1), uint8(11), uint8(7))
	f.Add(int64(53), uint8(0), uint8(4), uint8(4), uint8(4), uint8(4), uint8(0), uint8(2), uint8(3), uint8(5))
	f.Add(int64(54), uint8(3), uint8(5), uint8(5), uint8(2), uint8(2), uint8(0), uint8(1), uint8(9), uint8(15))
	f.Add(int64(55), uint8(1), uint8(6), uint8(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(5), uint8(8))
	f.Add(int64(56), uint8(3), uint8(3), uint8(3), uint8(2), uint8(2), uint8(1), uint8(1), uint8(17), uint8(7))
	f.Add(int64(57), uint8(2), uint8(5), uint8(5), uint8(2), uint8(2), uint8(1), uint8(1), uint8(7), uint8(4))
	f.Add(int64(58), uint8(1), uint8(9), uint8(9), uint8(0), uint8(0), uint8(1), uint8(0), uint8(4), uint8(5))
	f.Add(int64(59), uint8(3), uint8(11), uint8(11), uint8(2), uint8(2), uint8(1), uint8(1), uint8(5), uint8(15))
	f.Add(int64(60), uint8(2), uint8(1), uint8(13), uint8(4), uint8(4), uint8(1), uint8(2), uint8(3), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, inC, inH, inW, kh, kw, stride, pad, n, outC uint8) {
		g, batch, filters := fuzzConvBandGeom(inC, inH, inW, kh, kw, stride, pad, n, outC)
		if g.Validate() != nil {
			t.Skip("degenerate geometry")
		}
		eachDispatch(t, func(t *testing.T) { checkConvBandVsDirect(t, seed, g, batch, filters) })
	})
}

// bandDeterminismCases are multi-band problems: several whole-sample
// bands, a ragged last band, bands of many samples.
var bandDeterminismCases = []struct {
	g       ConvGeom
	n, outC int
}{
	{ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 7, 16},
	{ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 23, 12},
	{ConvGeom{InC: 6, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 50, 5},
	{ConvGeom{InC: 2, InH: 10, InW: 10, KH: 5, KW: 5, Stride: 1, Pad: 2}, 9, 9},
}

// TestConvBandDeterministicAcrossWorkers demands byte-identical outputs,
// input gradients, weight gradients and bias gradients at 1, 2, 3 and 8
// workers: tasks own disjoint bands, lanes select scratch and never data,
// and the gradient partials are summed in band order after the join.
// Under -race it is also the data-race probe of the band tasks. A backward
// given a residual skip gradient must write "dx, then add": fl(dx + G),
// or fl(dx + G masked by Y) under a ReLU, byte for byte, with the weight
// and bias gradients unmoved, on every stripCases geometry (the stride-1
// drain, the stride-2 interleave and the scatter) and on the gather route;
// so must a backward given no dx (the parameter-only call).
func TestConvBandDeterministicAcrossWorkers(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		for ci, bc := range stripCases {
			checkConvSkip(t, int64(300+ci), bc.g, bc.n, bc.outC, false)
		}
		for ci, bc := range bandDeterminismCases {
			checkConvSkip(t, int64(400+ci), bc.g, bc.n, bc.outC, true)
		}
		for ci, bc := range bandDeterminismCases {
			c := newConvBandCase(t, int64(7+ci), bc.g, bc.n, bc.outC)
			var sc ConvScratchF32 // shared across worker counts: lanes grow, results must not move
			prev := SetMaxWorkers(1)
			c.run(t, &sc)
			SetMaxWorkers(prev)
			want := [][]float32{c.out, c.dx, c.gw, c.gb}
			for _, workers := range []int{2, 3, 8} {
				prev := SetMaxWorkers(workers)
				c.run(t, &sc)
				SetMaxWorkers(prev)
				for k, got := range [][]float32{c.out, c.dx, c.gw, c.gb} {
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[k][i]) {
							t.Fatalf("case %d workers=%d: %s[%d] = %g, serial %g", ci, workers,
								[]string{"out", "dx", "dW", "db"}[k], i, got[i], want[k][i])
						}
					}
				}
			}
		}
	})
}

// checkConvSkip is the skip-gradient spec of one geometry (a plan built
// under convGatherOnly when gather is set): G has NaN, ±0, ±Inf and
// subnormal payloads, Y is a ReLU output with zeros, and dx carries
// canary words past its end. It then runs the parameter-only call (nil
// dx) on a fresh scratch, whose dW and db must be the full call's bytes.
func checkConvSkip(t *testing.T, seed int64, g ConvGeom, n, outC int, gather bool) {
	t.Helper()
	convGatherOnly = gather
	c := newConvBandCase(t, seed, g, n, outC)
	convGatherOnly = false
	var sc ConvScratchF32
	prev := SetMaxWorkers(1)
	c.run(t, &sc)
	SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(seed))
	sg, y := make([]float32, len(c.dx)), make([]float32, len(c.dx))
	for i := range sg {
		sg[i], y[i] = float32(rng.NormFloat64()), max(float32(rng.NormFloat64()), 0)
		if rng.Intn(8) == 0 {
			sg[i] = bnAddSpecials[rng.Intn(len(bnAddSpecials))]
		}
	}
	for _, r := range []Rect{{}, Rectifier(0)} {
		want := make([]float32, len(c.dx))
		for i, v := range c.dx {
			s := sg[i]
			if r.on {
				s = rectifyGradRef(s, y[i], 0)
			}
			want[i] = v + s
		}
		for _, workers := range []int{1, 2, 3, 8} {
			dx, gw, gb := poisoned(len(c.dx)), make([]float32, len(c.w)), make([]float32, c.outC)
			prev := SetMaxWorkers(workers)
			err := ConvF32BackwardInto(dx[:len(c.dx)], gw, gb, c.x, c.dout, c.n, c.w, c.plan, &sc, Skip{G: sg, Y: y, R: r})
			SetMaxWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			checkUntouched(t, "skip dx", dx, len(c.dx))
			for k, got := range [][]float32{dx, gw, gb} {
				for i, w := range [][]float32{want, c.gw, c.gb}[k] {
					if math.Float32bits(got[i]) != math.Float32bits(w) {
						t.Fatalf("%+v gather=%v relu=%v workers=%d: %s[%d] = %#x, want %#x", g, gather, r.on, workers,
							[]string{"dx+skip", "dW", "db"}[k], i, math.Float32bits(got[i]), math.Float32bits(w))
					}
				}
			}
		}
	}
	var ps ConvScratchF32 // shared across worker counts: lanes grow, results must not move
	for _, workers := range []int{1, 2, 3, 8} {
		gw, gb := make([]float32, len(c.w)), make([]float32, c.outC)
		prev := SetMaxWorkers(workers)
		err := ConvF32BackwardInto(nil, gw, gb, c.x, c.dout, c.n, c.w, c.plan, &ps, Skip{})
		SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for k, got := range [][]float32{gw, gb} {
			for i, w := range [][]float32{c.gw, c.gb}[k] {
				if math.Float32bits(got[i]) != math.Float32bits(w) {
					t.Fatalf("%+v gather=%v workers=%d: parameter-only %s[%d] = %#x, full call %#x", g, gather, workers,
						[]string{"dW", "db"}[k], i, math.Float32bits(got[i]), math.Float32bits(w))
				}
			}
		}
	}
}

// TestSkipAddKernel pins the skip-add kernel of the dispatch to the
// portable loop, and that to nn's unfused sum (dmain + the rectifyGrad-
// masked skip), bit for bit, masked and unmasked, at every length from 1
// to 40 and at 1029: a, s and y end against a PROT_NONE page, d carries
// canary words, and s and y carry NaN, ±0, ±Inf and subnormal payloads.
func TestSkipAddKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	draw := func(n int, neg bool) []float32 {
		v := guarded[float32](t, n, 0)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
			if !neg {
				v[i] = max(v[i], 0)
			}
			if rng.Intn(6) == 0 {
				v[i] = bnAddSpecials[rng.Intn(len(bnAddSpecials))]
			}
		}
		return v
	}
	eachDispatch(t, func(t *testing.T) {
		for n := 1; n <= 41; n++ {
			if n == 41 {
				n = 1029
			}
			a, sk, y := draw(n, true), draw(n, true), draw(n, false)
			for _, top := range []int32{0, Rectifier(0).top} {
				want, got := poisoned(n), poisoned(n)
				skipAddGo(want[:n], a, sk, y, top)
				faultFree(t, "skip add", func() { skipAdd(got[:n], a, sk, y, top) })
				checkUntouched(t, "skip-add output", got, n)
				for i, v := range a {
					s := sk[i]
					if top != 0 {
						s = rectifyGradRef(s, y[i], 0)
					}
					if u := v + s; math.Float32bits(want[i]) != math.Float32bits(u) || math.Float32bits(got[i]) != math.Float32bits(u) {
						t.Fatalf("n=%d top=%d: d[%d] = %#x (portable %#x), want %#x", n, top, i,
							math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(u))
					}
				}
			}
		}
	})
}

// TestConvBandWeightGradMatchesWholeBatch checks the one result whose
// association the band driver changed: the sum of per-band partials
// against the retained whole-batch product dout·colsᵀ over the explicit
// patch matrix, to float32 rounding.
func TestConvBandWeightGradMatchesWholeBatch(t *testing.T) {
	for ci, bc := range bandDeterminismCases {
		c := newConvBandCase(t, int64(31+ci), bc.g, bc.n, bc.outC)
		c.run(t, &ConvScratchF32{})
		ns := c.n * c.s
		cols, d2d, dw := New(c.kdim, ns), New(c.outC, ns), New(c.outC, c.kdim)
		if err := Im2ColBatchInto(cols, MustFromSlice(c.x, c.n, c.g.InC, c.g.InH, c.g.InW), c.g); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.n; i++ {
			for oc := 0; oc < c.outC; oc++ {
				copy(d2d.Data()[oc*ns+i*c.s:][:c.s], c.dout[(i*c.outC+oc)*c.s:])
			}
		}
		if err := MatMulTransBInto(dw, d2d, cols); err != nil {
			t.Fatal(err)
		}
		for i, want := range dw.Data() {
			if d := math.Abs(float64(c.gw[i] - want)); d > 1e-6*float64(ns)*math.Max(1, math.Abs(float64(want))) {
				t.Fatalf("case %d: dW[%d] = %g, whole-batch product %g", ci, i, c.gw[i], want)
			}
		}
	}
}

// TestConvBandSteadyStateAllocs pins the arena contract of the driver: on
// the serial path a warm forward+backward allocates nothing, on the
// parallel path only the pool hand-off, and the scratch of a warm layer is
// sized by the band — it does not grow with the batch beyond the per-band
// gradient partials. A parameter-only backward grows none of the dx
// route's scratch.
func TestConvBandSteadyStateAllocs(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	g := ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	var sc ConvScratchF32
	small := newConvBandCase(t, 3, g, 8, 16)
	// A strip-route forward holds no patch tile.
	if err := ConvF32ForwardInto(make([]float32, small.outLen), small.x, small.n, small.w, small.bias, small.plan, &sc); err != nil {
		t.Fatal(err)
	}
	for i, ln := range sc.lanes {
		if cap(ln.tile) != 0 {
			t.Errorf("lane %d holds a %d-float tile after a strip-route forward", i, cap(ln.tile))
		}
	}
	small.run(t, &sc)
	// Nor does a dx-route backward: no column-gradient tile exists.
	for i, ln := range sc.lanes {
		if cap(ln.tile) != 0 {
			t.Errorf("lane %d holds a %d-float tile after a dx-route backward", i, cap(ln.tile))
		}
	}
	laneFloats := func() (n int) {
		for _, ln := range sc.lanes {
			n += cap(ln.tile) + cap(ln.prod) + cap(ln.doT) + cap(ln.stage) + cap(ln.dstage)
		}
		return n
	}
	before := laneFloats()
	big := newConvBandCase(t, 4, g, 64, 16)
	big.run(t, &sc)
	if after := laneFloats(); after != before {
		t.Errorf("lane scratch grew from %d to %d floats when the batch went 8 → 64: it must be sized by the band", before, after)
	}
	if patch := big.kdim * big.n * big.s; before+cap(sc.part) > patch/4 {
		t.Errorf("scratch holds %d floats, more than a quarter of one %d-float batch patch matrix (the im2col conv held four)", before+cap(sc.part), patch)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := ConvF32ForwardInto(big.out, big.x, big.n, big.w, big.bias, big.plan, &sc); err != nil {
			t.Fatal(err)
		}
		if err := ConvF32BackwardInto(big.dx, big.gw, big.gb, big.x, big.dout, big.n, big.w, big.plan, &sc, Skip{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm serial forward+backward allocates %v objects/op, want 0", allocs)
	}
	// A parameter-only backward (nil dx) on fresh scratch grows no dx
	// route: no dout strip, no transposed weights, and nothing warm.
	var ps ConvScratchF32
	paramStep := func() {
		if err := ConvF32ForwardInto(big.out, big.x, big.n, big.w, big.bias, big.plan, &ps); err != nil {
			t.Fatal(err)
		}
		if err := ConvF32BackwardInto(nil, big.gw, big.gb, big.x, big.dout, big.n, big.w, big.plan, &ps, Skip{}); err != nil {
			t.Fatal(err)
		}
	}
	paramStep()
	for i, ln := range ps.lanes {
		if cap(ln.dstage) != 0 {
			t.Errorf("lane %d holds a %d-float dout strip after a parameter-only backward", i, cap(ln.dstage))
		}
	}
	if cap(ps.wT) != 0 {
		t.Errorf("scratch holds %d transposed weights after a parameter-only backward", cap(ps.wT))
	}
	if allocs := testing.AllocsPerRun(10, paramStep); allocs != 0 {
		t.Errorf("warm serial forward+parameter-only backward allocates %v objects/op, want 0", allocs)
	}
	// Its product holds the forward's outC rows, not dx's Stride² phases.
	s2 := newConvBandCase(t, 5, ConvGeom{InC: 6, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 8, 4)
	var ss ConvScratchF32
	if err := ConvF32ForwardInto(make([]float32, s2.outLen), s2.x, s2.n, s2.w, s2.bias, s2.plan, &ss); err != nil {
		t.Fatal(err)
	}
	if err := ConvF32BackwardInto(nil, make([]float32, len(s2.w)), nil, s2.x, s2.dout, s2.n, s2.w, s2.plan, &ss, Skip{}); err != nil {
		t.Fatal(err)
	}
	for i, ln := range ss.lanes {
		if want := s2.plan.outC * s2.plan.ldp(s2.plan.bandSamples(s2.n)); cap(ln.prod) != want {
			t.Errorf("lane %d holds a %d-float product after a parameter-only backward, want the forward's %d", i, cap(ln.prod), want)
		}
	}
	// In parallel each call pays only the pool hand-off — the closure, the
	// job and its done channel: a band job small enough to ride inside the
	// closure costs no copy of its own.
	SetMaxWorkers(2)
	allocs = testing.AllocsPerRun(10, func() {
		if err := ConvF32ForwardInto(big.out, big.x, big.n, big.w, big.bias, big.plan, &sc); err != nil {
			t.Fatal(err)
		}
		if err := ConvF32BackwardInto(big.dx, big.gw, big.gb, big.x, big.dout, big.n, big.w, big.plan, &sc, Skip{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("warm parallel forward+backward allocates %v objects/op, want <= 6", allocs)
	}
}

// TestConvBandRejectsShortOperands keeps every length check of the
// validated entry points.
func TestConvBandRejectsShortOperands(t *testing.T) {
	c := newConvBandCase(t, 5, ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, 4)
	var sc ConvScratchF32
	c.run(t, &sc)
	short := func(v []float32) []float32 { return v[:len(v)-1] }
	fwd := func(out, x, w, bias []float32, n int) error {
		return ConvF32ForwardInto(out, x, n, w, bias, c.plan, &sc)
	}
	bwd := func(dx, gw, gb, x, dout, w []float32) error {
		return ConvF32BackwardInto(dx, gw, gb, x, dout, c.n, w, c.plan, &sc, Skip{})
	}
	skip := func(dx, g, y []float32) error {
		return ConvF32BackwardInto(dx, c.gw, c.gb, c.x, c.dout, c.n, c.w, c.plan, &sc, Skip{G: g, Y: y, R: Rectifier(0)})
	}
	for name, err := range map[string]error{
		"forward n=0":               fwd(c.out, c.x, c.w, c.bias, 0),
		"forward short out":         fwd(short(c.out), c.x, c.w, c.bias, c.n),
		"forward short x":           fwd(c.out, short(c.x), c.w, c.bias, c.n),
		"forward short w":           fwd(c.out, c.x, short(c.w), c.bias, c.n),
		"forward short bias":        fwd(c.out, c.x, c.w, short(c.bias), c.n),
		"backward short dx":         bwd(short(c.dx), c.gw, c.gb, c.x, c.dout, c.w),
		"backward short gw":         bwd(c.dx, short(c.gw), c.gb, c.x, c.dout, c.w),
		"backward short gb":         bwd(c.dx, c.gw, short(c.gb), c.x, c.dout, c.w),
		"backward short x":          bwd(c.dx, c.gw, c.gb, short(c.x), c.dout, c.w),
		"backward short dout":       bwd(c.dx, c.gw, c.gb, c.x, short(c.dout), c.w),
		"backward short w":          bwd(c.dx, c.gw, c.gb, c.x, c.dout, short(c.w)),
		"backward short skip":       skip(c.dx, short(c.x), c.x),
		"backward short mask":       skip(c.dx, c.x, short(c.x)),
		"backward nil dx with skip": skip(nil, c.x, c.x),
		"backward nil dx short x":   bwd(nil, c.gw, c.gb, short(c.x), c.dout, c.w),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewConvPlanF32(c.g, 0); err == nil {
		t.Error("plan accepted outC 0")
	}
	if _, err := NewConvPlanF32(ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1}, 4); err == nil {
		t.Error("plan accepted an empty output")
	}
}

// stripCases are the route-identity problems: the determinism cases, the
// benchmark's ResNet-20 (width 0.25) and SmallCNN convs at 16×16 — stem,
// stage 1/2/3 stride-1 convs, both stride-2 3×3 convs, both 1×1
// downsamples, SmallCNN b1–b4 — outC and kdim off multiples of 4, a 5×5
// and a channel-reducing 1×1 conv on the dx route, and Micro's 12×12
// geometries, whose output rows of 6, 3 and 2 the strip routes pad to
// whole 4-column runs.
var stripCases = append([]struct {
	g       ConvGeom
	n, outC int
}{
	{ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, 4},   // ResNet-20 stem, kdim 27
	{ConvGeom{InC: 4, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, 4},   // stage 1
	{ConvGeom{InC: 4, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 2, Pad: 1}, 7, 8},   // stage 2 entry
	{ConvGeom{InC: 4, InH: 16, InW: 16, KH: 1, KW: 1, Stride: 2, Pad: 0}, 7, 8},   // stage 2 downsample
	{ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 7, 8},     // stage 2
	{ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 19, 16},   // stage 3 entry
	{ConvGeom{InC: 8, InH: 8, InW: 8, KH: 1, KW: 1, Stride: 2, Pad: 0}, 19, 16},   // stage 3 downsample
	{ConvGeom{InC: 16, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 19, 16},  // stage 3, OW 4
	{ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, 16},  // SmallCNN b1
	{ConvGeom{InC: 16, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 2, Pad: 1}, 7, 16}, // b2
	{ConvGeom{InC: 16, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 7, 32},   // b3
	{ConvGeom{InC: 32, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 19, 32},  // b4
	{ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 6, 5},     // kdim 27, outC 5
	{ConvGeom{InC: 5, InH: 5, InW: 24, KH: 3, KW: 3, Stride: 1, Pad: 1}, 5, 7},    // kdim 45, outC 7, OW 24
	{ConvGeom{InC: 7, InH: 3, InW: 8, KH: 1, KW: 1, Stride: 1, Pad: 0}, 13, 9},    // kdim 7, outC 9
	{ConvGeom{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, 5, 6},     // 5×5, dx segments of 6 taps
	{ConvGeom{InC: 9, InH: 2, InW: 16, KH: 1, KW: 1, Stride: 1, Pad: 0}, 7, 4},    // 1×1 projection: dx rows past outC
	{ConvGeom{InC: 3, InH: 4, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, 9, 6},    // OW 12: quarters, outC off a multiple of 4
	{ConvGeom{InC: 2, InH: 6, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 5, 3},     // OW 4, 3 channels: gathered forward, dx quarters
	{ConvGeom{InC: 5, InH: 6, InW: 24, KH: 3, KW: 3, Stride: 2, Pad: 1}, 4, 6},    // stride 2, OW 12
	{ConvGeom{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 2, Pad: 2}, 9, 4},     // stride 2, 5×5: dx phases of 9, 6, 6 and 4 taps
	{ConvGeom{InC: 2, InH: 8, InW: 16, KH: 3, KW: 4, Stride: 2, Pad: 1}, 6, 5},    // stride 2, 3×4 kernel
	{ConvGeom{InC: 3, InH: 8, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1}, 6, 4},     // stride 2 from an odd width: phases of 5 and 4, dx scatters
	{ConvGeom{InC: 2, InH: 9, InW: 9, KH: 3, KW: 3, Stride: 2, Pad: 0}, 5, 8},     // stride 2, pad 0, OW 4 from 9: dx scatters
	{ConvGeom{InC: 4, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 2, Pad: 1}, 5, 8},   // OW 6 from 12: padded rows, dx tail of 2
	{ConvGeom{InC: 16, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 2, Pad: 1}, 7, 16}, // Micro SmallCNN b2: 6×6
	{ConvGeom{InC: 32, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}, 19, 32},  // Micro SmallCNN b4: 3×3, no interleaved step
	{ConvGeom{InC: 8, InH: 6, InW: 6, KH: 1, KW: 1, Stride: 2, Pad: 0}, 19, 16},   // Micro ResNet-20 stage 3 downsample: 3×3
	{ConvGeom{InC: 16, InH: 6, InW: 6, KH: 5, KW: 5, Stride: 1, Pad: 2}, 7, 16},   // Micro 5×5 at 6×6
	{ConvGeom{InC: 12, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1, Pad: 0}, 70, 6},   // Micro MobileNetV2 1×1 at 2×2
	{ConvGeom{InC: 2, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 3, Pad: 1}, 5, 4},   // stride 3, OW 4: both gather
}, bandDeterminismCases...)

// wantStripRoutes is the route rule the plans must follow: at stride 1 or
// 2 the forward reads the strip when there are at least 4 output channels,
// and dx reads the dout strip when the input is Stride times the output.
func wantStripRoutes(g ConvGeom, outC int) (fwd, dx bool) {
	oh, ow := g.OutHW()
	ok := g.Stride <= 2
	return ok && outC >= 4, ok && g.InH == g.Stride*oh && g.InW == g.Stride*ow
}

// TestConvStripMatchesGather pins the strip routes to the gather route they
// replace: plans built under convGatherOnly run every product on the
// gathered lane tile and scatter dx, and out, dx, dW and the bias gradient
// must come out byte-identical at 1, 2, 3 and 8 workers under both
// dispatches — the same values meet the same FMA order, and dx's segments
// meet the scatter's add order. It also pins each route rule per case. On
// arm64 the compiler may fuse the portable kernels' x*y+z differently in
// the two routes, so there the match is to float32 rounding.
func TestConvStripMatchesGather(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		for ci, bc := range stripCases {
			c := newConvBandCase(t, int64(61+ci), bc.g, bc.n, bc.outC)
			fwd, dx := wantStripRoutes(bc.g, bc.outC)
			if strip := c.plan.runs != nil; strip != fwd {
				t.Fatalf("case %d %+v outC %d: strip-route forward %v, want %v", ci, bc.g, bc.outC, strip, fwd)
			}
			if strip := c.plan.dxOfs != nil; strip != dx {
				t.Fatalf("case %d %+v: strip-route dx %v, want %v", ci, bc.g, strip, dx)
			}
			convGatherOnly = true
			ref := newConvBandCase(t, int64(61+ci), bc.g, bc.n, bc.outC)
			convGatherOnly = false
			prev := SetMaxWorkers(1)
			ref.run(t, &ConvScratchF32{})
			SetMaxWorkers(prev)
			var sc ConvScratchF32
			for _, workers := range []int{1, 2, 3, 8} {
				prev := SetMaxWorkers(workers)
				c.run(t, &sc)
				SetMaxWorkers(prev)
				for k, got := range [][]float32{c.out, c.dx, c.gw, c.gb} {
					want := [][]float32{ref.out, ref.dx, ref.gw, ref.gb}[k]
					for i := range got {
						same := math.Float32bits(got[i]) == math.Float32bits(want[i])
						if runtime.GOARCH == "arm64" {
							same = math.Abs(float64(got[i]-want[i])) <= 1e-5*float64(c.kdim+c.n*c.s)*math.Max(1, math.Abs(float64(want[i])))
						}
						if !same {
							t.Fatalf("case %d %+v workers=%d: %s[%d] = %g, gather route %g", ci, bc.g, workers,
								[]string{"out", "dx", "dW", "db"}[k], i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestConvStripGuardFloats pre-sizes every lane buffer with NaN: the
// strips, tile, product and doutᵀ panels wholly, and the input and dout
// strips with guard floats after their length. Forward and backward on
// strip-route geometries (halves, quarters, stride-2 phase strips) and
// gather-route ones must leave every out, dx, dW and bias-gradient element
// finite and the guards untouched — which pins the strip-route kernels'
// reads (the padded columns of rows that are not whole 4-column runs
// included), the dead runs of a ragged band and the stride-2 phase
// staging: no kernel reads past the strips.
func TestConvStripGuardFloats(t *testing.T) {
	geoms := []struct {
		g       ConvGeom
		n, outC int
	}{
		{ConvGeom{InC: 3, InH: 5, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 9, 6},   // strip routes, a dead half
		{ConvGeom{InC: 2, InH: 3, InW: 24, KH: 3, KW: 3, Stride: 1, Pad: 1}, 5, 4},  // strip routes, OW 24, dx rows past InC
		{ConvGeom{InC: 5, InH: 4, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, 3, 4},   // strip routes, 5×5, dx rows past InC
		{ConvGeom{InC: 5, InH: 4, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, 3, 2},   // 2 channels: gathered forward, dx strip
		{ConvGeom{InC: 4, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, 4}, // ResNet-20 stage 1
		{ConvGeom{InC: 6, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 50, 5},  // stride 2
		{ConvGeom{InC: 3, InH: 9, InW: 7, KH: 1, KW: 1, Stride: 2, Pad: 0}, 6, 7},   // stride-2 1×1
		{ConvGeom{InC: 4, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 2, Pad: 1}, 5, 8}, // phase strip, OW 8
		{ConvGeom{InC: 4, InH: 16, InW: 16, KH: 1, KW: 1, Stride: 2, Pad: 0}, 5, 8}, // phase strip, three dx phases without taps
		{ConvGeom{InC: 3, InH: 5, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, 7, 6},  // quarters, OW 12, a dead quarter
		{ConvGeom{InC: 5, InH: 8, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1}, 9, 4},   // phase strip from an odd width
		{ConvGeom{InC: 6, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 2, Pad: 1}, 3, 4}, // OW 6: padded rows
		{ConvGeom{InC: 4, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}, 9, 5},   // OW 3: a padded column a row
		{ConvGeom{InC: 3, InH: 5, InW: 5, KH: 5, KW: 5, Stride: 1, Pad: 2}, 4, 6},   // OW 5, 5×5
		{ConvGeom{InC: 2, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 3, Pad: 1}, 5, 4}, // stride 3: the gather routes
		{ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, 4}, // the stem: kdim 27 padded to 32 dW rows
		{ConvGeom{InC: 4, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 5, 12},  // 12 channels: an 8- and a 4-channel fill block
	}
	eachDispatch(t, func(t *testing.T) {
		for gi, gc := range geoms {
			for _, workers := range []int{1, 2} {
				prev := SetMaxWorkers(workers)
				c := newConvBandCase(t, int64(90+gi), gc.g, gc.n, gc.outC)
				p, bs := c.plan, c.plan.bandSamples(gc.n)
				ld, sl, dsl := p.ld(bs), p.stripLen(bs), p.doutGeom().stageLen(bs)
				sc := ConvScratchF32{lanes: make([]convLaneF32, bandLanes(blocks(gc.n, bs)))}
				for i := range sc.lanes {
					ln := &sc.lanes[i]
					ln.stage, ln.dstage = poisoned(sl)[:sl], poisoned(dsl)[:dsl]
					ln.tile, ln.prod, ln.doT = poisoned(p.kdim*ld), poisoned(p.prodRows(true)*p.ldp(bs)), poisoned(ld*p.tld)
				}
				c.run(t, &sc)
				SetMaxWorkers(prev)
				for k, v := range [][]float32{c.out, c.dx, c.gw, c.gb} {
					for i, f := range v {
						if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
							t.Fatalf("%+v workers=%d: %s[%d] = %g", gc.g, workers, []string{"out", "dx", "dW", "db"}[k], i, f)
						}
					}
				}
				for _, ln := range sc.lanes {
					checkUntouched(t, "strip", ln.stage[:cap(ln.stage)], sl)
					checkUntouched(t, "dout strip", ln.dstage[:cap(ln.dstage)], dsl)
				}
			}
		}
	})
}

// FuzzConvStripKernels checks each strip-route kernel of the active SIMD
// dispatch — and the staging copy, the stride-2 dx drain's interleave and
// the backward's doutᵀ fill — against its portable twin, byte for byte,
// over random offset tables (in any order, bounded by their largest
// entry), run bases — halves, or quarters when wide has bit 1 set — k
// walks, segment lengths, row counts and fill shapes. Strip, operand and
// panel hold small integers, so every product and partial sum is exact in
// float32 and fused and unfused accumulation agree bit for bit; canary
// words after the strip and the destination catch a stray read or write,
// and the weight-gradient and fill operands sit against a guard page, so
// an over-read faults by name. Plain `go test` replays the seeds; CI also
// mutates for a bounded -fuzztime.
func FuzzConvStripKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 16; trial++ {
		var b [7]uint8
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		f.Add(rng.Int63(), b[0], b[1], b[2], b[3], b[4], b[5], b[6])
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, taps, nb, oh, ow, st, wide uint8) {
		if SIMDFeatures() == "" {
			t.Skip("no SIMD dispatch on this host")
		}
		defer SetSIMD(SetSIMD(true))
		rng := rand.New(rand.NewSource(seed))
		small := func(v []float32) {
			for i := range v {
				v[i] = float32(rng.Intn(9) - 4)
			}
		}
		table := func(n, span int) ([]int32, int) { // any order, repeats allowed; and its largest entry
			ofs, hi := make([]int32, n), 0
			for i := range ofs {
				ofs[i] = int32(rng.Intn(span))
				hi = max(hi, int(ofs[i]))
			}
			return ofs, hi
		}
		runs := func() (stripRuns, int) { // and the largest base
			r := stripRuns{w: 8}
			if wide&2 != 0 {
				r.w = 4
			}
			b := 0
			for j := 0; j < f32PanelCols/r.w; j++ {
				r.b[j] = rng.Intn(24)
				b = max(b, r.b[j])
			}
			return r, b
		}
		// The forward kernel: any row count from 4, k taps of one panel
		// row.
		r, rb := runs()
		m, k := 4+int(rows%10), 1+int(taps%40)
		ofs, hi := table(k, 64)
		sl := rb + hi + r.w
		strip := poisoned(sl)
		small(strip[:sl])
		ars, ldd := k+rng.Intn(3), 16+rng.Intn(5)
		a := make([]float32, (m-1)*ars+k)
		small(a)
		dl := (m-1)*ldd + 16
		got, want := poisoned(dl), poisoned(dl)
		f32StripPanel(got[:dl], a, strip[:sl], ofs, m, k, ars, ldd, hi, r)
		f32StripPanelGo(want[:dl], a, strip[:sl], ofs, m, k, ars, ldd, hi, r)
		checkStripKernel(t, "forward", got, want, dl)
		checkUntouched(t, "forward strip", strip, sl)

		// The weight-gradient kernels: rows in groups of 8 at pw 8 and of 4
		// at pw 16, a k walk of nb samples × oh rows × ow columns. Every
		// operand sits against a guard page, after its end (canaries
		// included) or, when wide has bit 2 set, before its start.
		start := wide&4 != 0
		pw := []int{f32PanelCols, f32PanelColsNarrow}[wide%2]
		w := stripWalk{nb: 1 + int(nb%3), oh: 1 + int(oh%4), ow: 1 + int(ow%9), st: 1 + int(st%2)}
		w.rs = (w.ow-1)*w.st + 1 + rng.Intn(4)
		w.sps = (w.oh-1)*w.rs + (w.ow-1)*w.st + 1 + rng.Intn(8)
		m = dwRows(pw) * (1 + int(rows)%(40/dwRows(pw)))
		ofs, hi = table(m, 32)
		ofs = fenced(t, ofs, start)
		sl = hi + (w.nb-1)*w.sps + (w.oh-1)*w.rs + (w.ow-1)*w.st + 1
		strip = poisoned(sl)
		small(strip[:sl])
		strip = fenced(t, strip, start)
		panel := make([]float32, w.nb*w.oh*w.ow*pw)
		small(panel)
		panel = fenced(t, panel, start)
		ldd = pw + rng.Intn(9)
		dl = (m-1)*ldd + pw
		got, want = fenced(t, poisoned(dl), start), poisoned(dl)
		faultFree(t, "weight-gradient kernel", func() { f32StripDW(got[:dl], strip[:sl], ofs, hi, panel, pw, w, ldd) })
		f32StripDWGo(want[:dl], strip[:sl], ofs, hi, panel, pw, w, ldd)
		checkStripKernel(t, "weight-gradient", got, want, dl)
		checkUntouched(t, "weight-gradient strip", strip, sl)

		// The doutᵀ fill: nb samples of nc channels × s positions into
		// pw-wide panels, whole blocks and leftover channels and positions
		// alike; operands against guard pages as above.
		nc, s, nbf := 1+int(taps)%40, 1+(int(oh)<<8|int(ow))%300, 1+int(nb)%3
		dout := make([]float32, nbf*nc*s)
		small(dout)
		dout = fenced(t, dout, start)
		dl = blocks(nc, pw) * pw * nbf * s
		got, want = fenced(t, poisoned(dl), start), poisoned(dl)
		faultFree(t, "doutᵀ fill", func() { fillDoutT(got[:dl], dout, nc, s, nbf, pw) })
		fillDoutTGo(want[:dl], dout, nc, s, nbf, pw)
		checkStripKernel(t, "doutᵀ fill", got, want, dl)

		// The input-gradient kernel: rows in groups of four, k taps in
		// segments of seg, segments added into the destination's running
		// sums.
		seg := 1 + int(taps%9)
		k = seg * (1 + int(oh%9))
		m = 4 * (1 + int(rows%3))
		ofs, hi = table(k, 48)
		r, rb = runs()
		sl = rb + hi + r.w
		strip = poisoned(sl)
		small(strip[:sl])
		a = make([]float32, m*k)
		small(a)
		ldd = 16 + rng.Intn(5)
		dl = (m-1)*ldd + 16
		got, want = poisoned(dl), poisoned(dl)
		for i := 0; i < m; i++ { // the running sums, added into
			small(got[i*ldd : i*ldd+16])
			copy(want[i*ldd:], got[i*ldd:i*ldd+16])
		}
		f32StripDX(got[:dl], a, strip[:sl], ofs, seg, hi, m, ldd, r)
		f32StripDXGo(want[:dl], a, strip[:sl], ofs, seg, hi, m, ldd, r)
		checkStripKernel(t, "input-gradient", got, want, dl)
		checkUntouched(t, "input-gradient strip", strip, sl)

		// The stride-2 drain's interleave: rows of n = 4·q floats per
		// phase, es apart, destination rows ds apart.
		n, rws := 4*(1+int(ow%5)), 1+int(nb%4)
		es, ds := n+rng.Intn(5), 2*n+rng.Intn(5)
		el := (rws-1)*es + n
		e, o := make([]float32, el), make([]float32, el)
		small(e)
		small(o)
		dl = (rws-1)*ds + 2*n
		got, want = poisoned(dl), poisoned(dl)
		interleave(got[:dl], e, o, n, rws, es, ds)
		interleaveGo(want[:dl], e, o, n, rws, es, ds)
		checkStripKernel(t, "interleave", got, want, dl)

		// Staging: planes of h rows of w floats into strip rows rs apart,
		// whole or split into column phases from +e / +o.
		ph, h := 1+int(st%2), 1+int(oh%5)
		planes, w0 := 1+int(nb%3), 1+int(ow%20)
		rs := w0 + 4 + rng.Intn(4) // room for both phases, which never overlap
		eo := rng.Intn(3)
		oo := eo + (w0+1)/2 + rng.Intn(2)
		sp := h*rs + rng.Intn(5)
		src := make([]float32, planes*h*w0)
		small(src)
		dl = (planes-1)*sp + (h-1)*rs + max(eo, oo) + (w0-1)/ph + 1
		got, want = poisoned(dl), poisoned(dl)
		stageRows(got[:dl], src, planes, h, w0, sp, rs, eo, oo, ph)
		stageRowsGo(want[:dl], src, planes, h, w0, sp, rs, eo, oo, ph)
		for i := range want[:dl] { // poison where neither writes
			if math.IsNaN(float64(want[i])) != math.IsNaN(float64(got[i])) {
				t.Fatalf("staging: dst[%d] = %g, portable twin %g", i, got[i], want[i])
			}
			if math.IsNaN(float64(want[i])) {
				got[i], want[i] = 0, 0
			}
		}
		checkStripKernel(t, "staging", got, want, dl)
	})
}

// fenced returns a copy of v placed against a guard page: after its last
// element, or with start set before its first.
func fenced[T any](t testing.TB, v []T, start bool) []T {
	var g []T
	if start {
		g = guardedStart[T](t, len(v))
	} else {
		g = guarded[T](t, len(v), 0)
	}
	copy(g, v)
	return g
}

// canaryWords is the count of canary words poisoned places after a
// buffer.
const canaryWords = 8

// poisoned returns n floats followed by canaryWords canary words, every
// word a NaN whose payload is its index: a stale or misplaced word shows in
// a bitwise comparison, and a kernel that folds one into a result turns
// the result into a NaN.
func poisoned(n int) []float32 {
	v := make([]float32, n+canaryWords)
	for i := range v {
		v[i] = math.Float32frombits(0x7fa00000 | uint32(i))
	}
	return v
}

// checkUntouched fails when a word of v from index n on lost its poison.
func checkUntouched(t *testing.T, what string, v []float32, n int) {
	t.Helper()
	for i := n; i < len(v); i++ {
		if math.Float32bits(v[i]) != 0x7fa00000|uint32(i) {
			t.Fatalf("word %d past the end of the %s was overwritten", i-n, what)
		}
	}
}

// checkStripKernel demands the portable twin's bytes in the first n words
// of got and untouched canaries after them.
func checkStripKernel(t *testing.T, what string, got, want []float32, n int) {
	t.Helper()
	for i := range want[:n] {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s kernel: dst[%d] = %g, portable twin %g", what, i, got[i], want[i])
		}
	}
	checkUntouched(t, what+" destination", got, n)
}
