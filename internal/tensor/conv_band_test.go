package tensor

import (
	"math"
	"math/rand"
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
	if err := ConvF32BackwardInto(c.dx, c.gw, c.gb, c.x, c.dout, c.n, c.w, c.plan, sc); err != nil {
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
		InC: 1 + int(inC%4), InH: 1 + int(inH%12), InW: 1 + int(inW%12),
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
// Under -race it is also the data-race probe of the band tasks.
func TestConvBandDeterministicAcrossWorkers(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
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
// gradient partials.
func TestConvBandSteadyStateAllocs(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	g := ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	var sc ConvScratchF32
	small := newConvBandCase(t, 3, g, 8, 16)
	small.run(t, &sc)
	laneFloats := func() (n int) {
		for _, ln := range sc.lanes {
			n += cap(ln.tile) + cap(ln.prod) + cap(ln.doT) + cap(ln.stage)
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
		if err := ConvF32BackwardInto(big.dx, big.gw, big.gb, big.x, big.dout, big.n, big.w, big.plan, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm serial forward+backward allocates %v objects/op, want 0", allocs)
	}
	// In parallel each call pays only the pool hand-off — the closure, the
	// job and its done channel: a band job small enough to ride inside the
	// closure costs no copy of its own.
	SetMaxWorkers(2)
	allocs = testing.AllocsPerRun(10, func() {
		if err := ConvF32ForwardInto(big.out, big.x, big.n, big.w, big.bias, big.plan, &sc); err != nil {
			t.Fatal(err)
		}
		if err := ConvF32BackwardInto(big.dx, big.gw, big.gb, big.x, big.dout, big.n, big.w, big.plan, &sc); err != nil {
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
		return ConvF32BackwardInto(dx, gw, gb, x, dout, c.n, w, c.plan, &sc)
	}
	for name, err := range map[string]error{
		"forward n=0":         fwd(c.out, c.x, c.w, c.bias, 0),
		"forward short out":   fwd(short(c.out), c.x, c.w, c.bias, c.n),
		"forward short x":     fwd(c.out, short(c.x), c.w, c.bias, c.n),
		"forward short w":     fwd(c.out, c.x, short(c.w), c.bias, c.n),
		"forward short bias":  fwd(c.out, c.x, c.w, short(c.bias), c.n),
		"backward short dx":   bwd(short(c.dx), c.gw, c.gb, c.x, c.dout, c.w),
		"backward short gw":   bwd(c.dx, short(c.gw), c.gb, c.x, c.dout, c.w),
		"backward short gb":   bwd(c.dx, c.gw, short(c.gb), c.x, c.dout, c.w),
		"backward short x":    bwd(c.dx, c.gw, c.gb, short(c.x), c.dout, c.w),
		"backward short dout": bwd(c.dx, c.gw, c.gb, c.x, short(c.dout), c.w),
		"backward short w":    bwd(c.dx, c.gw, c.gb, c.x, c.dout, short(c.w)),
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
