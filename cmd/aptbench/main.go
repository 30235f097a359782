// Command aptbench regenerates the paper's evaluation artefacts (Figures
// 1–5 and Table I) on the SynthCIFAR workloads, plus two extensions run
// only by id: the controller ablation (-exp ablate) and parameter-server
// traffic (-exp dist).
//
// Usage:
//
//	aptbench -exp fig2 [-scale micro|ci|paper] [-v] [-csv out.csv]
//	aptbench -all [-scale ci]
//
// Each experiment prints a text table mirroring the paper's artefact; -csv
// additionally writes the rows as CSV. Kernel, engine and serving speed
// figures come from the repository benchmark instead:
// go run -C bench . --trace 1 -out FILE.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aptbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aptbench", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment id ("+strings.Join(experiments.IDs(), ", ")+")")
	all := fs.Bool("all", false, "run every experiment")
	scaleName := fs.String("scale", "ci", "scale profile: micro, ci or paper")
	verbose := fs.Bool("v", false, "log per-epoch training progress")
	csvPath := fs.String("csv", "", "also write results as CSV to this file (one block per experiment)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *exp != "":
		ids = []string{*exp}
	default:
		return fmt.Errorf("pass -exp <id> or -all (ids: %s)", strings.Join(experiments.IDs(), ", "))
	}

	var log io.Writer
	if *verbose {
		log = out
	}
	var csv strings.Builder
	for _, id := range ids {
		runner, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		start := time.Now()
		rep, err := runner(scale, log)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprint(out, rep.Render())
		fmt.Fprintf(out, "(%s scale, %s)\n\n", scale.Name, time.Since(start).Round(time.Millisecond))
		if *csvPath != "" {
			csv.WriteString("# " + rep.ID + ": " + rep.Title + "\n")
			csv.WriteString(rep.CSV())
			csv.WriteString("\n")
		}
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
	}
	return nil
}
