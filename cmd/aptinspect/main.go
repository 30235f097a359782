// Command aptinspect quantizes a freshly initialized backbone at a given
// bitwidth and reports each layer's quantization state: value range, the
// minimum resolution ε (Eq. 2), parameter count, storage size and per-MAC
// energy — a static view of what APT manages dynamically. It also prints
// the live kernel dispatch and the int8 serving engine's conv lowering.
//
// Usage:
//
//	aptinspect -model resnet20 -bits 6
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/energy"
	"repro/internal/models"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aptinspect:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aptinspect", flag.ContinueOnError)
	modelName := fs.String("model", "resnet20", "backbone: resnet20, resnet110, mobilenetv2, cifarnet, vggsmall, smallcnn")
	classes := fs.Int("classes", 10, "number of classes")
	size := fs.Int("size", 32, "input spatial size")
	width := fs.Float64("width", 1.0, "backbone width multiplier")
	bits := fs.Int("bits", 6, "bitwidth to quantize to (ignored with -load)")
	seed := fs.Uint64("seed", 42, "weight-init seed")
	load := fs.String("load", "", "inspect a trained checkpoint instead of a fresh quantization (model flags must match the checkpointed architecture)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := models.Build(*modelName, models.Config{Classes: *classes, InputSize: *size, Width: *width, Seed: *seed})
	if err != nil {
		return err
	}

	params := m.Params()
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := models.Load(f, m); err != nil {
			return fmt.Errorf("load %s: %w", *load, err)
		}
	} else {
		for _, p := range params {
			if err := p.SetBits(*bits); err != nil {
				return err
			}
		}
	}
	em := energy.DefaultModel()
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "parameter\tshape elems\trange\teps (Eq.2)\tbits\tsize\n")
	var totalBits int64
	for _, p := range params {
		min, max := p.Value.MinMax()
		totalBits += p.SizeBits()
		fmt.Fprintf(tw, "%s\t%d\t[%.3f, %.3f]\t%.3g\t%d\t%s\n",
			p.Name, p.Value.Len(), min, max, p.Eps(), p.Bits(), fmtBytes(p.SizeBits()))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fp32 := energy.FP32SizeBits(params)
	var nParams int
	for _, p := range params {
		nParams += p.Value.Len()
	}
	fmt.Fprintf(out, "\nmodel: %s, %d params in %d tensors\n", m.Name, nParams, len(params))
	fmt.Fprintf(out, "quantized size %s (%.1f%% of fp32 %s)\n",
		fmtBytes(totalBits), 100*float64(totalBits)/float64(fp32), fmtBytes(fp32))
	snap := energy.Snapshot(m.Layers())
	var macs int64
	for _, lc := range snap {
		macs += lc.MACs
	}
	fmt.Fprintf(out, "forward MACs/sample %d; iteration energy %.3g (fp32 %.3g) per sample\n",
		macs, em.IterationEnergy(snap), em.FP32Reference(snap, 1))
	fmt.Fprintf(out, "per-MAC energy at %d bits: %.4f of a 32-bit MAC\n",
		*bits, em.MACCost(*bits)/em.MACCost(quant.MaxBits))
	fmt.Fprintf(out, "kernel dispatch: %s\n", tensor.KernelSummary())
	fmt.Fprintf(out, "int8 conv: implicit band gather (all geometries)\n")
	return nil
}

func fmtBytes(bits int64) string {
	bytes := float64(bits) / 8
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%.2fMiB", bytes/(1<<20))
	case bytes >= 1<<10:
		return fmt.Sprintf("%.2fKiB", bytes/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", bytes)
	}
}
