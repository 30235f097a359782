package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// naiveConvAccRef computes the position-major conv accumulator
// ((N·OH·OW, outC) int32) by direct tap enumeration: the ground truth the
// band-gather driver must match bit for bit.
// Out-of-bounds taps read the pad value (the activation zero point).
func naiveConvAccRef(src []uint8, n int, g ConvGeom, pad uint8, wt []int8, outC int) []int32 {
	oh, ow := g.OutHW()
	kdim := g.InC * g.KH * g.KW
	inSz := g.InC * g.InH * g.InW
	out := make([]int32, n*oh*ow*outC)
	for i := 0; i < n; i++ {
		img := src[i*inSz : (i+1)*inSz]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := out[((i*oh+oy)*ow+ox)*outC:][:outC]
				for oc := 0; oc < outC; oc++ {
					var s int32
					w := wt[oc*kdim:]
					p := 0
					for c := 0; c < g.InC; c++ {
						for kh := 0; kh < g.KH; kh++ {
							iy := oy*g.Stride + kh - g.Pad
							for kw := 0; kw < g.KW; kw++ {
								ix := ox*g.Stride + kw - g.Pad
								a := pad
								if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
									a = img[(c*g.InH+iy)*g.InW+ix]
								}
								s += int32(a) * int32(w[p])
								p++
							}
						}
					}
					row[oc] = s
				}
			}
		}
	}
	return out
}

// implicitWork allocates the gather lanes ConvU8I8ImplicitInto needs at
// the current worker bound, poisoned so stale bytes cannot pass as
// correct gathers.
func implicitWork(p *ConvPlanU8, tasks int) []uint8 {
	lanes := MaxWorkers()
	if lanes > tasks {
		lanes = tasks
	}
	w := make([]uint8, lanes*p.BandLen())
	for i := range w {
		w[i] = 0xA5
	}
	return w
}

// TestConvImplicitMatchesNaive sweeps the kernel-size × stride × pad ×
// batch grid of the serving zoo, plus the geometries that once broke the
// hoisted interior-range gather, and checks per dispatch that the
// implicit driver and the naive tap enumeration produce the same
// accumulator bit for bit.
func TestConvImplicitMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edge := []ConvGeom{
		{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 5, InW: 7, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 2, Pad: 0},
		// Kernel wider than InW+Pad: the interior column range is empty
		// and every position is an edge (regression: the hoisted-range
		// gather once sliced at a negative offset here).
		{InC: 1, InH: 2, InW: 2, KH: 7, KW: 7, Stride: 1, Pad: 3},
		{InC: 2, InH: 3, InW: 3, KH: 4, KW: 4, Stride: 2, Pad: 1},
		// Negative interior numerator with Pad 0 / small Pad: Go's
		// toward-zero division would round (InW−KW+Pad)/Stride up to 0
		// and let the fast path read past the source row (regression).
		{InC: 1, InH: 2, InW: 2, KH: 1, KW: 3, Stride: 2, Pad: 0},
		{InC: 1, InH: 4, InW: 3, KH: 2, KW: 6, Stride: 1, Pad: 2},
		// Minimal 3×3/stride-1/pad-1 width: two border columns are the
		// whole row.
		{InC: 2, InH: 3, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1},
	}
	eachDispatch(t, func(t *testing.T) {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					for _, n := range []int{1, 2, 5} {
						g := ConvGeom{InC: 3, InH: 9, InW: 11, KH: k, KW: k, Stride: stride, Pad: pad}
						if g.Validate() != nil {
							continue
						}
						name := fmt.Sprintf("k%d_s%d_p%d_n%d", k, stride, pad, n)
						t.Run(name, func(t *testing.T) {
							checkConvImplicit(t, rng, g, n, 6)
						})
					}
				}
			}
		}
		for _, g := range edge {
			g := g
			t.Run(fmt.Sprintf("edge_c%d_%dx%d_k%dx%d_s%d_p%d", g.InC, g.InH, g.InW, g.KH, g.KW, g.Stride, g.Pad), func(t *testing.T) {
				checkConvImplicit(t, rng, g, 3, 5)
			})
		}
	})
}

// TestConvImplicitBandBoundaries exercises geometries whose output-row
// count collides with the banding in awkward ways (single row, exact
// band multiple, one spare row) plus a wide-image case where the gather
// crosses the word-copy tail.
func TestConvImplicitBandBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	geoms := []ConvGeom{
		{InC: 1, InH: 1, InW: 40, KH: 1, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 40, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 4, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 3, InH: 7, InW: 7, KH: 7, KW: 7, Stride: 1, Pad: 0},
		{InC: 16, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
	}
	eachDispatch(t, func(t *testing.T) {
		for _, g := range geoms {
			g := g
			t.Run(fmt.Sprintf("c%d_%dx%d_k%dx%d_s%d", g.InC, g.InH, g.InW, g.KH, g.KW, g.Stride), func(t *testing.T) {
				checkConvImplicit(t, rng, g, 3, 9)
			})
		}
	})
}

// fuzzConvGeom folds nine fuzzed bytes into a conv problem small enough
// for the naive reference: channels 1–5, image 1–14, kernel 1–5 per axis
// (non-square included), stride 1–2, pad 0–2, batch 1–4, 1–16 filters.
func fuzzConvGeom(inC, inH, inW, kh, kw, stride, pad, n, outC uint8) (ConvGeom, int, int) {
	g := ConvGeom{
		InC: 1 + int(inC%5), InH: 1 + int(inH%14), InW: 1 + int(inW%14),
		KH: 1 + int(kh%5), KW: 1 + int(kw%5),
		Stride: 1 + int(stride%2), Pad: int(pad % 3),
	}
	return g, 1 + int(n%4), 1 + int(outC%16)
}

// FuzzConvImplicitVsNaive drives fuzzed geometries, payloads and zero
// points through the implicit-vs-naive comparison under both dispatches.
// Plain `go test` replays the seeds below and the committed corpus in
// testdata/fuzz; CI also mutates for a bounded -fuzztime.
func FuzzConvImplicitVsNaive(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		var b [9]uint8
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		f.Add(rng.Int63(), b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8])
	}
	f.Fuzz(func(t *testing.T, seed int64, inC, inH, inW, kh, kw, stride, pad, n, outC uint8) {
		g, batch, filters := fuzzConvGeom(inC, inH, inW, kh, kw, stride, pad, n, outC)
		if g.Validate() != nil {
			t.Skip("degenerate geometry")
		}
		eachDispatch(t, func(t *testing.T) {
			checkConvImplicit(t, rand.New(rand.NewSource(seed)), g, batch, filters)
		})
	})
}

// checkConvImplicit runs one geometry (random payload, weights and zero
// point drawn from rng) through the naive and implicit paths and
// requires bit-identical accumulators.
func checkConvImplicit(t *testing.T, rng *rand.Rand, g ConvGeom, n, outC int) {
	t.Helper()
	oh, ow := g.OutHW()
	kdim := g.InC * g.KH * g.KW
	inSz := g.InC * g.InH * g.InW
	src := make([]uint8, n*inSz)
	for i := range src {
		src[i] = uint8(rng.Intn(256))
	}
	wt := make([]int8, outC*kdim)
	for i := range wt {
		wt[i] = int8(rng.Intn(255) - 127)
	}
	pad := uint8(rng.Intn(256))
	packed, err := PackI8PanelsBT(wt, kdim, outC)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveConvAccRef(src, n, g, pad, wt, outC)

	plan, err := NewConvPlanU8(g)
	if err != nil {
		t.Fatal(err)
	}
	imp := make([]int32, n*oh*ow*outC)
	work := implicitWork(plan, n*plan.Bands())
	if err := ConvU8I8ImplicitInto(imp, src, n, packed, plan, pad, work); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if imp[i] != want[i] {
			t.Fatalf("%+v n=%d outC=%d: implicit[%d] = %d, naive %d", g, n, outC, i, imp[i], want[i])
		}
	}
}

// nhwc transposes an NCHW uint8 batch of n (c, h, w) images to NHWC.
func nhwc(src []uint8, n, c, h, w int) []uint8 {
	out := make([]uint8, len(src))
	for i := 0; i < n*c; i++ {
		for p := 0; p < h*w; p++ {
			out[(i/c*h*w+p)*c+i%c] = src[i*h*w+p]
		}
	}
	return out
}

// stripTapU8 returns the value of strip k index k at output position
// (oy, ox) of one NCHW image: the tap the strip's runs must hold there.
func stripTapU8(p *ConvPlanU8, img []uint8, pad uint8, oy, ox, k int) uint8 {
	g := p.g
	c, kh, kw := k%g.InC, k/g.InC/g.KW, k/g.InC%g.KW
	if p.fold {
		kh, kw = k/g.InC%g.KH, k/g.InC/g.KH
	}
	iy, ix := oy*g.Stride+kh-g.Pad, ox*g.Stride+kw-g.Pad
	if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
		return pad
	}
	return img[(c*g.InH+iy)*g.InW+ix]
}

// TestGatherBand3MatchesNaive pins the band staging of the strip route on
// 3×3 geometries (the folded 3-channel stem included): on every band of
// every sample, the GEMM row the kernels' walk reads off the staged strip
// for each output position — its runs, concatenated — must equal the
// position's receptive field tap by tap in the strip's k order, border
// taps as the zero point. Stale lane bytes are poisoned, so a strip byte
// the staging failed to write shows up here.
func TestGatherBand3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	geoms := []ConvGeom{
		{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 16, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 4, InH: 9, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 2},
		{InC: 2, InH: 11, InW: 11, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 16, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 3, InH: 10, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 0},
		{InC: 5, InH: 7, InW: 9, KH: 3, KW: 3, Stride: 1, Pad: 0},
	}
	eachDispatch(t, func(t *testing.T) {
		for _, g := range geoms {
			t.Run(fmt.Sprintf("c%d_%dx%d_s%d_p%d", g.InC, g.InH, g.InW, g.Stride, g.Pad), func(t *testing.T) {
				plan, err := NewConvPlanU8(g)
				if err != nil {
					t.Fatal(err)
				}
				if want := g.InC*g.KW%4 != 0; plan.Fold() != want {
					t.Fatalf("fold = %v, want %v", plan.Fold(), want)
				}
				n := 2
				inSz := g.InC * g.InH * g.InW
				src := make([]uint8, n*inSz)
				for i := range src {
					src[i] = uint8(rng.Intn(256))
				}
				pad := uint8(rng.Intn(256))
				img8 := nhwc(src, n, g.InC, g.InH, g.InW)
				strip := make([]uint8, plan.strip)
				for task := 0; task < n*plan.Bands(); task++ {
					for i := range strip {
						strip[i] = 0xA5 // stale lane bytes must not leak through
					}
					i, oy0, oy1 := plan.bandSpan(task)
					plan.stage(strip, img8[i*inSz:(i+1)*inSz], pad, oy0, oy1)
					w := plan.walk
					w.m = (oy1 - oy0) * plan.ow
					if last := w.last(); last > len(strip) {
						t.Fatalf("task %d: walk reads %d bytes of a %d-byte strip", task, last, len(strip))
					}
					for p := 0; p < w.m; p++ {
						k := 0
						for s := 0; s < w.nseg; s++ {
							run := strip[w.at(p)+s*w.sst:][:4*w.segq]
							for _, v := range run[:min(len(run), plan.kdim-k)] {
								want := stripTapU8(plan, src[i*inSz:], pad, oy0+p/plan.ow, p%plan.ow, k)
								if v != want {
									t.Fatalf("task %d position %d: strip tap k=%d = %d, naive %d", task, p, k, v, want)
								}
								k++
							}
						}
						if k != plan.kdim {
							t.Fatalf("walk covers %d taps, want %d", k, plan.kdim)
						}
					}
				}
			})
		}
	})
}

// TestConvImplicitDeterministicAcrossWorkers pins the bit-identity
// contract across worker counts and dispatches, strided bands included:
// the implicit driver's banding and lane assignment must not leak into
// results. The same seed redraws the same problem at every count, and
// each run must equal the naive accumulator.
func TestConvImplicitDeterministicAcrossWorkers(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 4, InH: 13, InW: 13, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 4, InH: 13, InW: 13, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 6, InH: 12, InW: 12, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{InC: 3, InH: 11, InW: 11, KH: 5, KW: 5, Stride: 1, Pad: 2},
	}
	eachDispatch(t, func(t *testing.T) {
		for _, g := range geoms {
			for _, workers := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("k%dx%d_s%d_w%d", g.KH, g.KW, g.Stride, workers), func(t *testing.T) {
					defer SetMaxWorkers(SetMaxWorkers(workers))
					checkConvImplicit(t, rand.New(rand.NewSource(31)), g, 4, 10)
				})
			}
		}
	})
}

// TestConvImplicitErrors covers the validation surface of both int8
// conv entry points.
func TestConvImplicitErrors(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	plan, err := NewConvPlanU8(g)
	if err != nil {
		t.Fatal(err)
	}
	kdim := g.InC * g.KH * g.KW
	packed, err := PackI8PanelsBT(make([]int8, 4*kdim), kdim, 4)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := g.OutHW()
	src := make([]uint8, 2*g.InC*g.InH*g.InW)
	acc := make([]int32, 2*oh*ow*4)
	work := implicitWork(plan, 2*plan.Bands())

	if err := ConvU8I8ImplicitInto(acc, src, 0, packed, plan, 0, work); err == nil {
		t.Error("zero batch did not error")
	}
	if err := ConvU8I8ImplicitInto(acc, src[:5], 2, packed, plan, 0, work); err == nil {
		t.Error("short src did not error")
	}
	if err := ConvU8I8ImplicitInto(acc[:5], src, 2, packed, plan, 0, work); err == nil {
		t.Error("short acc did not error")
	}
	if err := ConvU8I8ImplicitInto(acc, src, 2, packed, plan, 0, work[:2]); err == nil {
		t.Error("short work did not error")
	}
	wrongK, err := PackI8PanelsBT(make([]int8, 4*(kdim+1)), kdim+1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ConvU8I8ImplicitInto(acc, src, 2, wrongK, plan, 0, work); err == nil {
		t.Error("mismatched packed k did not error")
	}
	one := []int32{1 << 30, 1 << 30, 1 << 30, 1 << 30}
	rsh := []int32{31, 31, 31, 31}
	rq, err := NewRequant(one, rsh, make([]int64, 4), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lanes []uint8
	var tile []int32
	strip := func(dst, src []uint8, n int, b *PackedI8) error {
		return ConvU8I8StripInto(dst, src, n, b, plan, 0, rq, &lanes, &tile, nil)
	}
	dst := make([]uint8, 2*oh*ow*4)
	if err := strip(dst, src, 2, packed); err != nil {
		t.Errorf("valid strip conv: %v", err)
	}
	if err := strip(dst[:5], src, 2, packed); err == nil {
		t.Error("short strip dst did not error")
	}
	if err := strip(dst, src[:5], 2, packed); err == nil {
		t.Error("short strip src did not error")
	}
	if err := strip(dst, src, 0, packed); err == nil {
		t.Error("zero strip batch did not error")
	}
	if err := strip(dst, src, 2, wrongK); err == nil {
		t.Error("mismatched strip packed k did not error")
	}
	if rq, err = NewRequant(one[:3], rsh, make([]int64, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := strip(dst, src, 2, packed); err == nil {
		t.Error("requant of 3 channels for 4 output channels did not error")
	}
	if _, err := plan.PackWeights(make([]int8, 4*kdim-1), 4); err == nil {
		t.Error("short strip weights did not error")
	}
	if _, err := NewConvPlanU8(ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0}); err == nil {
		t.Error("degenerate geometry did not error")
	}
}

// TestConvImplicitSerialPathAllocs pins the zero-allocation contract of
// the serial drivers: plan, packed weights and lanes are built once; the
// per-call path allocates nothing, NCHW oracle or strip layer.
func TestConvImplicitSerialPathAllocs(t *testing.T) {
	g := ConvGeom{InC: 4, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	n, outC := 2, 8
	oh, ow := g.OutHW()
	kdim := g.InC * g.KH * g.KW
	src := make([]uint8, n*g.InC*g.InH*g.InW)
	wt := make([]int8, outC*kdim)
	for i := range wt {
		wt[i] = int8(i%13 - 6)
	}
	packed, err := PackI8PanelsBT(wt, kdim, outC)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewConvPlanU8(g)
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]int32, n*oh*ow*outC)
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	work := implicitWork(plan, n*plan.Bands())
	allocs := testing.AllocsPerRun(20, func() {
		if err := ConvU8I8ImplicitInto(acc, src, n, packed, plan, 7, work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("serial implicit conv allocates %v objects per call, want 0", allocs)
	}
	c := newConvRequantCase(t, 9, g, n, outC, true)
	var lanes []uint8
	var tile []int32
	dst := c.run(t, &lanes, &tile, nil) // warm the arenas
	allocs = testing.AllocsPerRun(20, func() {
		if err := ConvU8I8StripInto(dst, c.src8, n, c.strip, c.plan, c.pad, c.rq, &lanes, &tile, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("serial strip conv allocates %v objects per call, want 0", allocs)
	}
}

// convRequantCase is one quantized conv layer: payload, weights and Q31
// requantization parameters drawn from a seed, scaled so the outputs
// spread over the uint8 range instead of saturating. It holds the NCHW
// form (src, wt, packed) and the strip route's NHWC form (src8, strip).
type convRequantCase struct {
	g             ConvGeom
	plan          *ConvPlanU8
	packed, strip *PackedI8
	n, outC       int
	src, src8     []uint8
	wt            []int8
	pad           uint8
	m0, rsh       []int32
	corr          []int64
	zp, lo        int32
	rq            *Requant // built from m0, rsh, corr, zp, lo
	outBytes      int
}

func newConvRequantCase(t *testing.T, seed int64, g ConvGeom, n, outC int, relu bool) *convRequantCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	plan, err := NewConvPlanU8(g)
	if err != nil {
		t.Fatal(err)
	}
	c := &convRequantCase{g: g, plan: plan, n: n, outC: outC, pad: uint8(rng.Intn(256)),
		src: make([]uint8, n*g.InC*g.InH*g.InW), outBytes: n * outC * plan.oh * plan.ow,
		m0: make([]int32, outC), rsh: make([]int32, outC), corr: make([]int64, outC), zp: int32(rng.Intn(256))}
	for i := range c.src {
		c.src[i] = uint8(rng.Intn(256))
	}
	c.src8 = nhwc(c.src, n, g.InC, g.InH, g.InW)
	c.wt = make([]int8, outC*plan.kdim)
	for i := range c.wt {
		c.wt[i] = int8(rng.Intn(255) - 127)
	}
	if c.packed, err = PackI8PanelsBT(c.wt, plan.kdim, outC); err != nil {
		t.Fatal(err)
	}
	if c.strip, err = plan.PackWeights(c.wt, outC); err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < outC; ch++ {
		c.m0[ch] = 1<<30 + rng.Int31n(1<<30)
		c.rsh[ch] = 40 + rng.Int31n(4)
		c.corr[ch] = rng.Int63n(1<<18) - 1<<17
	}
	if relu {
		c.lo = c.zp
	}
	if c.rq, err = NewRequant(c.m0, c.rsh, c.corr, c.zp, c.lo); err != nil {
		t.Fatal(err)
	}
	return c
}

// oracle is the NCHW two-pass path: the full-batch accumulator from
// ConvU8I8ImplicitInto, then one RequantQ31Transpose per sample, with
// the result transposed to the strip route's NHWC output.
func (c *convRequantCase) oracle(t *testing.T) []uint8 {
	t.Helper()
	sp := c.plan.oh * c.plan.ow
	acc := make([]int32, c.n*sp*c.outC)
	if err := ConvU8I8ImplicitInto(acc, c.src, c.n, c.packed, c.plan, c.pad, implicitWork(c.plan, c.n*c.plan.Bands())); err != nil {
		t.Fatal(err)
	}
	out := make([]uint8, c.outBytes)
	for i := 0; i < c.n; i++ {
		RequantQ31Transpose(out[i*c.outC*sp:], acc[i*sp*c.outC:], c.m0, c.rsh, c.corr, c.zp, c.lo, sp, c.outC, c.outC, sp)
	}
	return nhwc(out, c.n, c.outC, c.plan.oh, c.plan.ow)
}

// naive is the strip route's spec: direct tap enumeration over the NCHW
// payload, then the scalar requant reference per element, in NHWC order.
func (c *convRequantCase) naive() []uint8 {
	acc := naiveConvAccRef(c.src, c.n, c.g, c.pad, c.wt, c.outC)
	out := make([]uint8, len(acc))
	for i, a := range acc {
		ch := i % c.outC
		out[i] = requantQ31One(a, c.corr[ch], c.m0[ch], c.rsh[ch], c.zp, c.lo)
	}
	return out
}

// run is the strip layer through its entry point; dst starts poisoned.
func (c *convRequantCase) run(t *testing.T, work *[]uint8, tile *[]int32, clock *[3]time.Duration) []uint8 {
	t.Helper()
	dst := make([]uint8, c.outBytes)
	for i := range dst {
		dst[i] = 0xA5
	}
	if err := ConvU8I8StripInto(dst, c.src8, c.n, c.strip, c.plan, c.pad, c.rq, work, tile, clock); err != nil {
		t.Fatal(err)
	}
	return dst
}

// Guard regions of the canaried run: before the first lane and after
// every lane of the strip arena and of the tile arena.
const (
	guardBytes = 64
	guardWords = 16
	canaryByte = 0x5A
	canaryWord = int32(-0x21524111) // 0xDEADBEEF
)

// runCanaried runs the band job with a guard region around every lane's
// strip and int32 tile and fails if the call wrote one. A kernel read
// past a strip (the folded walk reads up to 3 bytes past its last run,
// inside the strip's slack) fails the kernel's bounds pin instead: the
// job hands each kernel its lane cut to the strip's length.
func (c *convRequantCase) runCanaried(t *testing.T) []uint8 {
	t.Helper()
	p := c.plan
	tasks := c.n * p.Bands()
	lanes := bandLanes(tasks)
	bl, tl := p.strip, p.brows*p.ow*c.outC
	j := convU8Job{p: p, b: c.strip, src: c.src8, pad: c.pad, wl: bl + guardBytes, tl: tl + guardWords,
		dst: make([]uint8, c.outBytes), rq: c.rq}
	work := make([]uint8, guardBytes+lanes*j.wl)
	tile := make([]int32, guardWords+lanes*j.tl)
	for i := range work {
		work[i] = canaryByte
	}
	for i := range tile {
		tile[i] = canaryWord
	}
	j.work, j.tile = work[guardBytes:], tile[guardWords:]
	runBands(j, tasks, nil)
	inLane := func(off, stride, length int) bool { return off >= 0 && off%stride < length }
	for i, v := range work {
		if v != canaryByte && !inLane(i-guardBytes, j.wl, bl) {
			t.Fatalf("strip arena byte %d (lane stride %d, strip %d bytes) overwritten: %#x", i-guardBytes, j.wl, bl, v)
		}
	}
	for i, v := range tile {
		if v != canaryWord && !inLane(i-guardWords, j.tl, tl) {
			t.Fatalf("tile arena word %d (lane stride %d, tile %d words) overwritten: %d", i-guardWords, j.tl, tl, v)
		}
	}
	return j.dst
}

// sameBytes fails at the first byte where got differs from want.
func sameBytes(t *testing.T, how string, got, want []uint8) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: byte %d = %d, want %d", how, i, got[i], want[i])
		}
	}
}

// TestConvRequantBandsMatchTwoPass pins the strip layer byte for byte
// against the NCHW two-pass oracle on both dispatches at 1/2/3/8 workers,
// with and without the ReLU floor, through the entry point (arenas reused
// across worker counts, as an engine scratch is), through the canaried
// job, and serially under the phase clock.
func TestConvRequantBandsMatchTwoPass(t *testing.T) {
	cases := []struct {
		name string
		g    ConvGeom
		n    int
	}{
		{"3x3_s1_ragged", ConvGeom{InC: 4, InH: 13, InW: 13, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3},
		{"3x3_s2", ConvGeom{InC: 4, InH: 13, InW: 13, KH: 3, KW: 3, Stride: 2, Pad: 1}, 4},
		{"1x1_s2", ConvGeom{InC: 6, InH: 12, InW: 12, KH: 1, KW: 1, Stride: 2, Pad: 0}, 5},
		{"5x5", ConvGeom{InC: 3, InH: 11, InW: 11, KH: 5, KW: 5, Stride: 1, Pad: 2}, 2},
		{"3x3_ragged_last_band", ConvGeom{InC: 8, InH: 20, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2},
		{"3x3_batch1", ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 1},
		{"3x4_s3_fold", ConvGeom{InC: 5, InH: 14, InW: 13, KH: 3, KW: 4, Stride: 3, Pad: 2}, 3},
		{"3x3_s2_ow3", ConvGeom{InC: 16, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}, 3},
	}
	eachDispatch(t, func(t *testing.T) {
		for ci, tc := range cases {
			for _, relu := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s_relu%v", tc.name, relu), func(t *testing.T) {
					c := newConvRequantCase(t, int64(60+ci), tc.g, tc.n, 10, relu)
					if oh := c.plan.oh; tc.name == "3x3_ragged_last_band" && oh%c.plan.brows == 0 {
						t.Fatalf("fixture lost its ragged band: %d rows in bands of %d", oh, c.plan.brows)
					}
					want := c.oracle(t)
					var work []uint8
					var tile []int32
					for _, workers := range []int{1, 2, 3, 8} {
						prev := SetMaxWorkers(workers)
						sameBytes(t, fmt.Sprintf("workers=%d", workers), c.run(t, &work, &tile, nil), want)
						sameBytes(t, fmt.Sprintf("workers=%d canaried", workers), c.runCanaried(t), want)
						SetMaxWorkers(prev)
					}
					var clock [3]time.Duration
					sameBytes(t, "phase clock", c.run(t, &work, &tile, &clock), want)
					if clock[0] <= 0 || clock[1] <= 0 || clock[2] <= 0 {
						t.Fatalf("phase clock left a hook untimed: %v", clock)
					}
				})
			}
		}
	})
}

// FuzzConvU8StripVsNaive drives fuzzed geometries — stride 1–3, pad 0–2,
// kernels 1–5 per axis (non-square included), 1–16 channels (folded
// strips whenever KW·C is not a multiple of 4), output widths of every
// residue mod 4 — payloads, zero points and requant parameters through
// the strip layer, canaried, under both dispatches, and requires its
// bytes to equal a naive NCHW conv followed by the scalar requant
// reference. safe halves every weight, so each pair stays under the
// int16 pair-sum bound; otherwise weights span the full int8 range. Both
// draws are range coverage: every kernel is exact for every weight.
func FuzzConvU8StripVsNaive(f *testing.F) {
	seeds := []struct {
		c, h, w, kh, kw, s, p uint8
	}{
		{3, 12, 12, 3, 3, 1, 1},  // the folded stem, OW 12
		{16, 6, 6, 3, 3, 2, 1},   // OW 3
		{16, 12, 12, 1, 1, 2, 0}, // 1×1 projection, KH < S
		{5, 11, 11, 5, 5, 1, 2},  // 5×5, folded
		{16, 9, 10, 3, 4, 3, 2},  // 3×4, stride 3
		{4, 7, 13, 3, 3, 1, 0},   // OW 11
		{8, 5, 5, 5, 5, 2, 2},    // OW 3, stride 2, pad 2
	}
	for i, sd := range seeds {
		f.Add(int64(i), sd.c-1, sd.h-1, sd.w-1, sd.kh-1, sd.kw-1, sd.s-1, sd.p, uint8(i), uint8(9+i), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, inC, inH, inW, kh, kw, stride, pad, n, outC uint8, safe bool) {
		g := ConvGeom{
			InC: 1 + int(inC%16), InH: 1 + int(inH%14), InW: 1 + int(inW%14),
			KH: 1 + int(kh%5), KW: 1 + int(kw%5), Stride: 1 + int(stride%3), Pad: int(pad % 3),
		}
		if g.Validate() != nil {
			t.Skip("degenerate geometry")
		}
		c := newConvRequantCase(t, seed, g, 1+int(n%4), 1+int(outC%24), seed%2 == 0)
		if safe {
			for i := range c.wt {
				c.wt[i] /= 2
			}
			var err error
			if c.strip, err = c.plan.PackWeights(c.wt, c.outC); err != nil {
				t.Fatal(err)
			}
		}
		want := c.naive()
		eachDispatch(t, func(t *testing.T) {
			var work []uint8
			var tile []int32
			sameBytes(t, "strip", c.run(t, &work, &tile, nil), want)
			sameBytes(t, "canaried", c.runCanaried(t), want)
		})
	})
}
