package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// tapCanaries is the count of canary words placed after every buffer the
// tap walks write or read: the tile, the staging strip (after its
// one-float margin) and the input gradient.
const tapCanaries = 8

// poisoned returns n floats followed by tapCanaries canary words, every
// word a NaN whose payload is its index: a stale or misplaced word shows in
// a bitwise comparison, and a kernel that folds one into a result turns
// the result into a NaN.
func poisoned(n int) []float32 {
	v := make([]float32, n+tapCanaries)
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

// tapLayout places a band's columns: gather into columns [j0, j0+cols) of
// a tile of pw-wide column panels (pw = 16: the forward's panels; pw ≥
// j0+cols: a row-major matrix at row stride pw), and scatter from the same
// columns of a row-major source at row stride ld.
type tapLayout struct{ j0, pw, ld int }

// checkConvTaps runs im2colInto and col2imInto for one band under the
// active dispatch and demands the bytes the portable run loop produces:
// the whole tile (stale columns and canaries included), the whole input
// gradient, and the staging strip's margin and canaries left as they were.
func checkConvTaps(t *testing.T, seed int64, g ConvGeom, nb int, l tapLayout) {
	t.Helper()
	oh, ow := g.OutHW()
	cols, kdim, inSz := nb*oh*ow, g.InC*g.KH*g.KW, g.InC*g.InH*g.InW
	sh, sw := g.stageDims()
	strip, sl := nb*g.InC*sh*sw, g.stageLen(nb)
	tileLen := blocks(l.j0+cols, l.pw) * kdim * l.pw
	rng := rand.New(rand.NewSource(seed))
	x := make([]float32, nb*inSz)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	dcols := poisoned(kdim * l.ld) // columns outside the band stay NaN
	for q := 0; q < kdim; q++ {
		for j := l.j0; j < l.j0+cols; j++ {
			dcols[q*l.ld+j] = float32(rng.NormFloat64())
		}
	}
	run := func() (tile, gstage, dx, sstage []float32) {
		tile, gstage = poisoned(tileLen), poisoned(sl)
		im2colInto(tile[:tileLen], x, g, nb, l.j0, l.pw, gstage[:sl])
		dx, sstage = poisoned(nb*inSz), poisoned(sl)
		col2imInto(dx[:nb*inSz], dcols[:kdim*l.ld], g, nb, l.j0, l.ld, sstage[:sl])
		return
	}
	simd := SIMDActive()
	SetSIMD(false)
	wantTile, _, wantDx, _ := run()
	SetSIMD(simd)
	tile, gstage, dx, sstage := run()
	checkUntouched(t, "tile", tile, tileLen)
	checkUntouched(t, "gather's staging strip", gstage, strip)
	checkUntouched(t, "input gradient", dx, nb*inSz)
	checkUntouched(t, "scatter's staging strip", sstage, strip)
	for i := range wantTile {
		if math.Float32bits(tile[i]) != math.Float32bits(wantTile[i]) {
			t.Fatalf("%+v nb=%d %+v: tile[%d] = %#x, run loop %#x", g, nb, l, i,
				math.Float32bits(tile[i]), math.Float32bits(wantTile[i]))
		}
	}
	for i := range wantDx {
		if math.Float32bits(dx[i]) != math.Float32bits(wantDx[i]) {
			t.Fatalf("%+v nb=%d %+v: dx[%d] = %g, run loop %g", g, nb, l, i, dx[i], wantDx[i])
		}
	}
}

// tapLayouts are the placements the callers use: the forward's panels
// from column 0, panels entered mid-panel, the backward's row-major tile,
// and a band at a nonzero column of a whole-batch matrix (Im2ColBatchInto
// and Col2ImBatchInto: j0 = i·S, row stride N·S).
func tapLayouts(cols int) []tapLayout {
	ld := blocks(cols, f32PanelCols) * f32PanelCols
	return []tapLayout{
		{0, f32PanelCols, ld},
		{5, f32PanelCols, 5 + cols + 3},
		{0, ld, ld},
		{cols, 3 * cols, 3 * cols},
	}
}

// tapGeom is the geometry whose output is oh × ow for a kernel, stride and
// padding, the padding cut where it alone would cover the input.
func tapGeom(inC, oh, ow, kh, kw, st, pad int) ConvGeom {
	h, w := (oh-1)*st+kh, (ow-1)*st+kw
	pad = min(pad, (min(h, w)-1)/2)
	return ConvGeom{InC: inC, InH: h - 2*pad, InW: w - 2*pad, KH: kh, KW: kw, Stride: st, Pad: pad}
}

// TestConvTapKernelsMatchRunLoop sweeps output widths 1–17 — every run
// split of a 16-wide panel, the 8-, 4- and 1-float steps and their tails —
// at strides 1, 2 and 3 (the last never dispatched to a kernel), padding
// 0–2, kernels 1, 3 and 5 and bands of 1–16 samples, through every caller
// layout, under both dispatches.
func TestConvTapKernelsMatchRunLoop(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		i := 0
		for _, k := range []int{1, 3, 5} {
			for st := 1; st <= 3; st++ {
				for pad := 0; pad <= 2; pad++ {
					for ow := 1; ow <= 17; ow++ {
						i++
						oh, nb := 1+i%3, 1+i%16
						g := tapGeom(1+i%2, oh, ow, k, k, st, pad)
						for _, l := range tapLayouts(nb * oh * ow) {
							checkConvTaps(t, int64(i), g, nb, l)
						}
					}
				}
			}
		}
	})
}

// FuzzConvTapKernels drives fuzzed geometries, bands and column placements
// through the same differential. Plain `go test` replays the seeds; CI
// also mutates for a bounded -fuzztime.
func FuzzConvTapKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 16; trial++ {
		var b [10]uint8
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		f.Add(rng.Int63(), b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9])
	}
	f.Fuzz(func(t *testing.T, seed int64, inC, oh, ow, kh, kw, stride, pad, nb, j0, layout uint8) {
		h, w, band := 1+int(oh%4), 1+int(ow%17), 1+int(nb%16)
		g := tapGeom(1+int(inC%3), h, w, 1+int(kh%5), 1+int(kw%5), 1+int(stride%3), int(pad%3))
		cols := band * h * w
		l := tapLayouts(cols)[layout%4]
		if layout%4 == 1 { // panels entered at any column
			l.j0 = int(j0 % 40)
			l.ld = l.j0 + cols + int(j0%3)
		}
		eachDispatch(t, func(t *testing.T) { checkConvTaps(t, seed, g, band, l) })
	})
}
