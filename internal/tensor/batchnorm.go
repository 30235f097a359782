package tensor

import "math"

// Batch-norm channel kernels. Each call walks one channel of an NCHW
// batch: n planes of plane floats, plane i starting at x[i·stride] (stride
// = C·plane for a (N, C, H, W) tensor sliced at the channel's first
// element). nn.BatchNorm2D runs one call per channel per pass, so a
// channel's statistics never depend on how channels were spread over
// workers.
//
// The bits contract is the portable code in this file; the AVX2 kernels
// (kernels_bn_amd64.s) must reproduce it bit for bit:
//
//   - Reductions accumulate in the eight float64 lanes of a lanes8: element
//     j of every plane goes to lane j mod 8, planes in order. A plane whose
//     length is not a multiple of 8 ends in a partial group that feeds
//     lanes 0 … plane%8−1 only. lanes8.sum folds the lanes in one fixed
//     tree.
//   - Every product is rounded before it is added (float64(d*d),
//     float32(x*scale)): the explicit conversion forbids the compiler to
//     fuse it into an FMA, so the portable code computes the same bits on
//     amd64 and arm64, and the assembly uses separate multiplies and adds.
//   - Element-wise passes run their float32 operations in the order
//     written, one rounding each.
//   - The affine pass and the gradient passes take the rectifier of the
//     node they run in (Rect): the affine output is then rectified as
//     nn.ReLU does it, and dy is masked by that output as nn's
//     rectifyGrad does it, so a fused conv → BN → ReLU node computes the
//     bytes of the three layers run one after another.

// lanes8 holds a channel reduction in the contract's eight float64 lanes.
type lanes8 [8]float64

// sum folds the lanes: ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)), the tree
// the AVX2 kernels compute with one vertical add of their two lane
// registers and two horizontal steps.
func (l *lanes8) sum() float64 {
	return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

// Rect is the rectifier a batch-norm pass fuses: the zero value is none,
// Rectifier(c) is min(max(·, 0), c).
type Rect struct {
	on  bool
	hi  float32 // the clip: c, or +Inf
	top int32   // the gradient passes where 0 < bits(y) < top; 0 for none
}

// Rectifier is nn.ReLU's rectifier with cap c: min(max(·, 0), c), or
// max(·, 0) when c ≤ 0.
func Rectifier(c float32) Rect {
	if c > 0 {
		return Rect{on: true, hi: c, top: int32(math.Float32bits(c))}
	}
	return Rect{on: true, hi: float32(math.Inf(1)), top: math.MaxInt32}
}

// pass is rectifyGrad's select: g where the rectified output y lies in
// the pass-through region, +0 elsewhere. y's bits order like an integer.
func (r Rect) pass(g, y float32) float32 {
	u := int32(math.Float32bits(y))
	return math.Float32frombits(math.Float32bits(g) & uint32((-u&(u-r.top))>>31))
}

// Batch-norm kernel dispatch: non-nil when a SIMD twin of the portable
// kernel below is installed (set and cleared together by simdApply).
var (
	bnMomentsAsm   func(x []float32, n, plane, stride int, cnt float64) (mean, variance float64)
	bnAffineAsm    func(y, x []float32, n, plane, stride int, scale, shift float32, r Rect)
	bnGradSumsAsm  func(dy, x, y []float32, n, plane, stride int, mean float64, r Rect) (sumDy, sumDyXc float64)
	bnGradInputAsm func(dx, dy, x, y []float32, n, plane, stride int, mean, mdy, k, a float32, r Rect)
)

// ChannelMoments returns the mean and the biased variance of one channel
// (n, plane ≥ 1): Σx over the lanes gives the mean, then Σ(x−mean)² over
// the lanes gives the variance — the two-pass algorithm, so no
// cancellation between a sum of squares and a squared sum.
func ChannelMoments(x []float32, n, plane, stride int) (mean, variance float64) {
	cnt := float64(n * plane)
	if bnMomentsAsm != nil {
		return bnMomentsAsm(x, n, plane, stride, cnt)
	}
	return channelMomentsGo(x, n, plane, stride, cnt)
}

func channelMomentsGo(x []float32, n, plane, stride int, cnt float64) (mean, variance float64) {
	var s, q lanes8
	for i := 0; i < n; i++ {
		for j, v := range x[i*stride : i*stride+plane] {
			s[j&7] += float64(v)
		}
	}
	mean = s.sum() / cnt
	for i := 0; i < n; i++ {
		for j, v := range x[i*stride : i*stride+plane] {
			d := float64(v) - mean
			q[j&7] += float64(d * d)
		}
	}
	return mean, q.sum() / cnt
}

// ChannelAffine writes y = r(float32(x·scale) + shift) over one channel:
// the batch-norm output with the normalization and the learned affine map
// folded into one per-channel scale and shift, then the node's rectifier.
func ChannelAffine(y, x []float32, n, plane, stride int, scale, shift float32, r Rect) {
	if bnAffineAsm != nil {
		bnAffineAsm(y, x, n, plane, stride, scale, shift, r)
		return
	}
	channelAffineGo(y, x, n, plane, stride, scale, shift, r)
}

func channelAffineGo(y, x []float32, n, plane, stride int, scale, shift float32, r Rect) {
	for i := 0; i < n; i++ {
		ys := y[i*stride : i*stride+plane]
		for j, v := range x[i*stride : i*stride+plane] {
			ys[j] = float32(v*scale) + shift
		}
		if r.on {
			for j, v := range ys {
				ys[j] = min(max(v, 0), r.hi)
			}
		}
	}
}

// ChannelGradSums returns Σdy and Σdy·(x−mean) over one channel, each in
// its own eight lanes, with dy masked by the rectified output y under a
// rectifier (y is read only then); dy, x and y share the layout.
func ChannelGradSums(dy, x, y []float32, n, plane, stride int, mean float64, r Rect) (sumDy, sumDyXc float64) {
	if bnGradSumsAsm != nil {
		return bnGradSumsAsm(dy, x, y, n, plane, stride, mean, r)
	}
	return channelGradSumsGo(dy, x, y, n, plane, stride, mean, r)
}

func channelGradSumsGo(dy, x, y []float32, n, plane, stride int, mean float64, r Rect) (sumDy, sumDyXc float64) {
	var s, p lanes8
	for i := 0; i < n; i++ {
		xs := x[i*stride : i*stride+plane]
		for j, g := range dy[i*stride : i*stride+plane] {
			if r.on {
				g = r.pass(g, y[i*stride+j])
			}
			d := float64(g)
			s[j&7] += d
			p[j&7] += float64(d * (float64(xs[j]) - mean))
		}
	}
	return s.sum(), p.sum()
}

// ChannelGradInput writes dx = a·((dy − mdy) − float32((x − mean)·k)) over
// one channel: the batch-norm input gradient with x̂ recomputed from the
// input, where a = γ·invstd, mdy = Σdy/cnt and k = invstd²·Σdy(x−mean)/cnt,
// and dy masked as in ChannelGradSums. dx, dy, x and y share the layout.
func ChannelGradInput(dx, dy, x, y []float32, n, plane, stride int, mean, mdy, k, a float32, r Rect) {
	if bnGradInputAsm != nil {
		bnGradInputAsm(dx, dy, x, y, n, plane, stride, mean, mdy, k, a, r)
		return
	}
	channelGradInputGo(dx, dy, x, y, n, plane, stride, mean, mdy, k, a, r)
}

func channelGradInputGo(dx, dy, x, y []float32, n, plane, stride int, mean, mdy, k, a float32, r Rect) {
	for i := 0; i < n; i++ {
		o := i * stride
		ds, xs := dx[o:o+plane], x[o:o+plane]
		for j, g := range dy[o : o+plane] {
			if r.on {
				g = r.pass(g, y[o+j])
			}
			ds[j] = a * ((g - mdy) - float32((xs[j]-mean)*k))
		}
	}
}
