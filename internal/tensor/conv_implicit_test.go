package tensor

import (
	"fmt"
	"math/rand"
	"testing"
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

// naiveGatherRow writes output row oy's ow patch rows tap by tap.
func naiveGatherRow(rows, img []uint8, g ConvGeom, pad uint8, oy, ow int) {
	for ox := 0; ox < ow; ox++ {
		for c := 0; c < g.InC; c++ {
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					iy, ix := oy*g.Stride+kh-g.Pad, ox*g.Stride+kw-g.Pad
					v := pad
					if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
						v = img[(c*g.InH+iy)*g.InW+ix]
					}
					rows[(ox*g.InC+c)*g.KH*g.KW+kh*g.KW+kw] = v
				}
			}
		}
	}
}

// TestGatherBand3MatchesNaive pins the staged 3×3 band gather (the
// padded staging strip + branch-free compose, SIMD pack kernel
// included) byte-for-byte against a per-tap gather on every band of
// every sample — including the spill contract of the 16-byte
// pack-kernel stores: a spilled byte that survives anywhere in the
// band's patch rows shows up as a mismatch here.
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
			g := g
			t.Run(fmt.Sprintf("c%d_%dx%d_s%d_p%d", g.InC, g.InH, g.InW, g.Stride, g.Pad), func(t *testing.T) {
				plan, err := NewConvPlanU8(g)
				if err != nil {
					t.Fatal(err)
				}
				if plan.stage == 0 {
					t.Fatal("3×3 plan did not enable the staged gather")
				}
				n := 2
				src := make([]uint8, n*g.InC*g.InH*g.InW)
				for i := range src {
					src[i] = uint8(rng.Intn(256))
				}
				pad := uint8(rng.Intn(256))
				kdim := plan.kdim
				rowLen := plan.ow * kdim
				buf := make([]uint8, plan.BandLen())
				want := make([]uint8, plan.brows*rowLen)
				for task := 0; task < n*plan.Bands(); task++ {
					for i := range buf {
						buf[i] = 0xA5 // stale lane bytes must not leak through
					}
					m := plan.GatherBandInto(buf, src, pad, task)
					i, oy0, oy1 := plan.bandSpan(task)
					img := src[i*g.InC*g.InH*g.InW:][:g.InC*g.InH*g.InW]
					for oy := oy0; oy < oy1; oy++ {
						naiveGatherRow(want[(oy-oy0)*rowLen:][:rowLen], img, g, pad, oy, plan.ow)
					}
					if m != (oy1-oy0)*plan.ow {
						t.Fatalf("task %d: m = %d, want %d", task, m, (oy1-oy0)*plan.ow)
					}
					for j := 0; j < m*kdim; j++ {
						if buf[j] != want[j] {
							t.Fatalf("task %d: staged byte %d = %d, naive %d", task, j, buf[j], want[j])
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

// TestConvImplicitErrors covers the driver's validation surface.
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
	if _, err := NewConvPlanU8(ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0}); err == nil {
		t.Error("degenerate geometry did not error")
	}
}

// TestConvImplicitSerialPathAllocs pins the zero-allocation contract of
// the serial driver: plan, packed weights and work lanes are built once;
// the per-call path allocates nothing.
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
}
