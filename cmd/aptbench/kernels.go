package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Kernel micro-benchmarks: the numeric hot paths the training loop spends
// its time in, run through testing.Benchmark and emitted as a
// machine-readable JSON report so the perf trajectory is tracked from one
// PR to the next (compare against the committed BENCH_tensor.json).

// kernelBench is one benchmark row of the JSON report.
type kernelBench struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// MFlops is the achieved arithmetic rate (2·MACs per op) where the
	// benchmark has a defined FLOP count.
	MFlops float64 `json:"mflops,omitempty"`
}

// seedBaseline is the same benchmark set measured at the seed commit's
// per-sample im2col + naive-GEMM path (dc0a200, 1-core reference dev
// machine, Xeon @ 2.10GHz). Kept in the report so any machine can read the
// trajectory without digging through git history; refresh it only when the
// reference machine changes.
var seedBaseline = []kernelBench{
	{Name: "MatMul256", NsPerOp: 7280736, AllocsPerOp: 5, BytesPerOp: 262320},
	{Name: "MatMulConvShaped", NsPerOp: 14922485, AllocsPerOp: 5, BytesPerOp: 4194480},
	{Name: "ConvForward64", NsPerOp: 17851665, AllocsPerOp: 779, BytesPerOp: 15751984},
	{Name: "ConvForwardBackward64", NsPerOp: 57427886, AllocsPerOp: 1876, BytesPerOp: 24815184},
}

// simdInfo records which kernel dispatch produced a report, so perf
// trajectories across machines are interpretable: the same benchmark on
// a host without (or with disabled) assembly kernels is a different
// experiment.
type simdInfo struct {
	// Active reports whether the assembly kernels were dispatched while
	// the benchmarks ran (false on non-amd64 hosts, under APT_NOSIMD, or
	// when CPUID rejects the CPU/OS).
	Active bool `json:"active"`
	// Features names the CPU features backing the assembly kernels
	// ("avx2,fma" on supported amd64), or "" when none exist.
	Features string `json:"features"`
}

func currentSIMDInfo() simdInfo {
	return simdInfo{Active: tensor.SIMDActive(), Features: tensor.SIMDFeatures()}
}

// kernelReport is the full JSON document.
type kernelReport struct {
	Generated    string        `json:"generated"`
	GoVersion    string        `json:"go_version"`
	GOOS         string        `json:"goos"`
	GOARCH       string        `json:"goarch"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	SIMD         simdInfo      `json:"simd"`
	Benchmarks   []kernelBench `json:"benchmarks"`
	SeedBaseline []kernelBench `json:"seed_baseline"`
}

// runKernelBenches executes the micro-benchmarks, prints a table, and
// writes the JSON report to jsonPath.
func runKernelBenches(out io.Writer, jsonPath string) error {
	rep := kernelReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SIMD:       currentSIMDInfo(),
	}
	fmt.Fprintf(out, "kernel dispatch: simd=%v features=%q\n", rep.SIMD.Active, rep.SIMD.Features)

	record := func(name string, flopsPerOp float64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		row := kernelBench{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if flopsPerOp > 0 && row.NsPerOp > 0 {
			row.MFlops = flopsPerOp / row.NsPerOp * 1e3
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		fmt.Fprintf(out, "%-24s %12.0f ns/op %8d allocs/op %10.0f MFLOP/s\n",
			name, row.NsPerOp, row.AllocsPerOp, row.MFlops)
	}

	record("MatMul256", benchkit.MatMul256Flops, func(b *testing.B) {
		x, y := benchkit.MatMul256()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tensor.MatMul(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})

	record("MatMulConvShaped", benchkit.ConvShapedGEMMFlops, func(b *testing.B) {
		w, cols := benchkit.ConvShapedGEMM()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tensor.MatMul(w, cols); err != nil {
				b.Fatal(err)
			}
		}
	})

	newConv := func(b *testing.B) (*nn.Conv2D, *tensor.Tensor) {
		conv, x, err := benchkit.Conv64()
		if err != nil {
			b.Fatal(err)
		}
		return conv, x
	}
	const convFlops = benchkit.Conv64ForwardFlops

	record("ConvForward64", convFlops, func(b *testing.B) {
		conv, x := newConv(b)
		if _, err := conv.Forward(x, true); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conv.Forward(x, true); err != nil {
				b.Fatal(err)
			}
		}
	})

	record("ConvForwardBackward64", 3*convFlops, func(b *testing.B) {
		conv, x := newConv(b)
		out, err := conv.Forward(x, true)
		if err != nil {
			b.Fatal(err)
		}
		dout := tensor.New(out.Shape()...)
		dout.Fill(0.01)
		if _, err := conv.Backward(dout); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conv.Forward(x, true); err != nil {
				b.Fatal(err)
			}
			if _, err := conv.Backward(dout); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Integer GEMM row: the serving engine's conv-shaped product (SmallCNN
	// layer 3 at the deploy geometry) through the packed-panel path —
	// whether it beats the float GEMMs above is exactly the "int8 is the
	// fastest path" claim, so it belongs in the trajectory.
	intM, intK, intN := 4096, 144, 32
	intFlops := 2 * float64(intM) * float64(intK) * float64(intN)
	rng := tensor.NewRNG(7)
	wInt := make([]int8, intN*intK)
	for i := range wInt {
		wInt[i] = int8(rng.Intn(255) - 127)
	}
	xInt := make([]uint8, intM*intK+3) // +3: packed kernels read 4-tap quads
	for i := range xInt {
		xInt[i] = uint8(rng.Intn(256))
	}
	// IntGEMMPacked4Row continues the IntGEMMPacked series under its
	// multi-row name: since the 4×8 register-blocked kernels landed, the
	// packed GEMM processes four activation rows per panel-quad load, so
	// this row against PR 4's IntGEMMPacked number (same workload, same
	// operands) is the one-row → multi-row before/after. The old row name
	// was retired rather than kept alongside — two rows measuring one
	// code path differ only by run noise.
	record("IntGEMMPacked4Row", intFlops, func(b *testing.B) {
		pb, err := tensor.PackI8PanelsBT(wInt, intK, intN)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]int32, intM*intN)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tensor.MatMulU8I8PackedInto(dst, xInt, pb, intM, intK); err != nil {
				b.Fatal(err)
			}
		}
	})

	// ConvImplicitU8: the whole int8 conv lowering — band gather + packed
	// GEMM — on the deploy-shaped stride-1 layer (16ch 16×16 3×3 pad 1, 16
	// samples → the exact 4096×144×32 product of IntGEMMPacked4Row, so the
	// gap between this row and that one is the gather cost).
	convG := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	convN := 16
	convOH, convOW := convG.OutHW()
	convPos := convN * convOH * convOW
	convSrc := make([]uint8, convN*convG.InC*convG.InH*convG.InW)
	for i := range convSrc {
		convSrc[i] = uint8(rng.Intn(256))
	}
	convPacked, err := tensor.PackI8PanelsBT(wInt, intK, intN)
	if err != nil {
		return err
	}
	record("ConvImplicitU8", intFlops, func(b *testing.B) {
		plan, err := tensor.NewConvPlanU8(convG)
		if err != nil {
			b.Fatal(err)
		}
		lanes := min(tensor.MaxWorkers(), convN*plan.Bands())
		work := make([]uint8, lanes*plan.BandLen())
		acc := make([]int32, convPos*intN)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tensor.ConvU8I8ImplicitInto(acc, convSrc, convN, convPacked, plan, 3, work); err != nil {
				b.Fatal(err)
			}
		}
	})

	// RequantQ31: the serving epilogue alone — requantize the transposed
	// (position-major) accumulator block the packed GEMM above produces,
	// at the same deploy geometry. This is the part of Engine.Forward that
	// the SIMD requant kernels vectorized; tracking it next to the GEMM
	// rows shows how the epilogue share of an int8 layer evolves. The op
	// count is per-element (not MACs), so the MFLOP/s column reads as
	// requantized elements ×2 per ns.
	rqNP, rqNC := intM, intN
	rqM0 := make([]int32, rqNC)
	rqRsh := make([]int32, rqNC)
	rqCorr := make([]int64, rqNC)
	for c := 0; c < rqNC; c++ {
		rqM0[c] = int32(1<<30 + c*12345)
		rqRsh[c] = int32(18 + c%8)
		rqCorr[c] = int64(c*1009 - 5000)
	}
	rqAcc := make([]int32, rqNP*rqNC)
	for i := range rqAcc {
		rqAcc[i] = int32(rng.Intn(1<<22) - 1<<21)
	}
	record("RequantQ31", 2*float64(rqNP)*float64(rqNC), func(b *testing.B) {
		dst := make([]uint8, rqNC*rqNP)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.RequantQ31Transpose(dst, rqAcc, rqM0, rqRsh, rqCorr, 3, 0, rqNP, rqNC, rqNC, rqNP)
		}
	})

	// EdgePanelGEMM: the narrow shapes that used to fall off the packed
	// path entirely — a classifier-head float GEMM (n=10 → one 8-wide
	// panel plus a 2-column edge) and a first-layer-dW-shaped int8 GEMM
	// with a partial final panel. Before the 8-wide and masked-store edge
	// kernels these ran the dot/AXPY fallback; the row exists so a
	// regression that reroutes them shows up as a step.
	edgeM, edgeK, edgeN := 512, 256, 10
	edgeFlops := 2 * float64(edgeM) * float64(edgeK) * float64(edgeN)
	record("EdgePanelGEMM", edgeFlops, func(b *testing.B) {
		a := tensor.New(edgeM, edgeK)
		bm := tensor.New(edgeK, edgeN)
		fillRNG := tensor.NewRNG(11)
		for i, d := 0, a.Data(); i < len(d); i++ {
			d[i] = fillRNG.Float32()
		}
		for i, d := 0, bm.Data(); i < len(d); i++ {
			d[i] = fillRNG.Float32()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tensor.MatMul(a, bm); err != nil {
				b.Fatal(err)
			}
		}
	})

	// FloatGEMMPacked: the conv-shaped float GEMM through the packed 4×16
	// FMA micro-kernel with B pre-packed — kernel time alone, the number
	// to compare against MatMulConvShaped's AXPY-era entries. The packing
	// itself is measured by the routed MatMulConvShaped row above (MatMul
	// repacks per call on this shape).
	record("FloatGEMMPacked", benchkit.ConvShapedGEMMFlops, func(b *testing.B) {
		w, cols := benchkit.ConvShapedGEMM()
		pb, err := tensor.PackF32PanelsB(cols.Data(), cols.Dim(0), cols.Dim(1))
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]float32, w.Dim(0)*cols.Dim(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tensor.MatMulF32PackedInto(dst, w.Data(), pb, w.Dim(0), w.Dim(1)); err != nil {
				b.Fatal(err)
			}
		}
	})

	rep.SeedBaseline = seedBaseline
	for _, base := range seedBaseline {
		for _, cur := range rep.Benchmarks {
			if cur.Name == base.Name && cur.NsPerOp > 0 {
				fmt.Fprintf(out, "%-24s %.2fx vs seed, allocs %d -> %d\n",
					cur.Name, base.NsPerOp/cur.NsPerOp, base.AllocsPerOp, cur.AllocsPerOp)
			}
		}
	}

	if err := writeKernelReport(jsonPath, &rep); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", jsonPath)
	return nil
}

// writeKernelReport rewrites the kernel-report fields of the benchmark
// JSON while carrying through any foreign top-level keys other tools have
// merged in (e.g. the dist experiment's "dist_faults" sweep). An existing
// file that fails to parse is simply overwritten.
func writeKernelReport(jsonPath string, rep *kernelReport) error {
	repJSON, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("marshal kernel report: %w", err)
	}
	doc := map[string]json.RawMessage{}
	if old, err := os.ReadFile(jsonPath); err == nil {
		if err := json.Unmarshal(old, &doc); err != nil {
			doc = map[string]json.RawMessage{}
		}
	}
	var repMap map[string]json.RawMessage
	if err := json.Unmarshal(repJSON, &repMap); err != nil {
		return fmt.Errorf("marshal kernel report: %w", err)
	}
	for k, v := range repMap {
		doc[k] = v
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal kernel report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return fmt.Errorf("write kernel report: %w", err)
	}
	return nil
}
