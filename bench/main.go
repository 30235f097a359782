// Command bench is the repository's one benchmark: five named workloads
// that cover train → dist → infer → serve, end-to-end metrics measured
// with tracing off, and a traced pass that attributes the time to each
// layer (module) of the stack. BENCHMARK.json at the repository root
// declares the workloads and metrics; README.md explains every name.
//
//	go run -C bench . --workload serve_open --seed 1 --seconds 15 --trace 0
//	go run -C bench . -out a.json              # all five workloads, one result set
//	go run -C bench . -check a.json b.json     # compare two result sets
//	go run -C bench . -manifest > BENCHMARK.json
//
// Every workload runs in a child process of this command with GOMAXPROCS
// pinned to 2, so peak RSS belongs to one workload and the tensor worker
// pool (sized at package init) sees the pinned value. The last line of
// standard output is one JSON object: {correct, attempted, failed,
// metrics}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// pinnedProcs is the GOMAXPROCS every workload child runs under (the
// reference box has two cores).
const pinnedProcs = 2

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all five, each in its own child process)")
	seed := fs.Uint64("seed", 1, "drives dataset, model init, sample order and arrival schedule")
	seconds := fs.Int("seconds", 15, "length of the timed window; training workloads size their epoch budget from it")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "all-workloads mode: write the stamped result set to this file")
	check := fs.Bool("check", false, "compare two result sets: bench -check a.json b.json")
	child := fs.Bool("child", false, "internal: run the workload in this process")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as the metric registry defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		return printManifest(stdout, stderr)
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -check wants two result-set files")
			return 2
		}
		return runCheck(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *workload != "" && findWorkload(*workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1}

	if *child {
		res, err := runWorkload(findWorkload(*workload), opts, stdout)
		if err == nil {
			err = printResult(stdout, res)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	set := resultSet{Stamp: newStamp(opts), Workloads: map[string]*result{}}
	for _, name := range names {
		res, line, err := runChild(name, opts, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		set.Workloads[name] = res
		if *workload != "" {
			// Single-workload mode: the child's result line is this
			// command's last line.
			fmt.Fprintln(stdout, line)
		}
	}
	if *workload == "" {
		ok := true
		for _, name := range names {
			r := set.Workloads[name]
			fmt.Fprintf(stdout, "%-16s correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
			ok = ok && r.Correct && r.Failed == 0
		}
		if *out != "" {
			if err := set.write(*out); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", *out)
		}
		if !ok {
			return 1
		}
	}
	return 0
}

type options struct {
	seed    uint64
	seconds int
	traced  bool
}

// runChild re-executes this binary for one workload with GOMAXPROCS
// pinned, relays its human-readable output, and parses its last line.
func runChild(name string, o options, stdout, stderr io.Writer) (*result, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", trace)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pinnedProcs))
	cmd.Stderr = stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run() // Run waits for the child to exit
	// Everything but the last line is for the reader; the last line is the
	// result.
	text := strings.TrimRight(buf.String(), "\n")
	human, last := "", text
	if i := strings.LastIndexByte(text, '\n'); i >= 0 {
		human, last = text[:i+1], text[i+1:]
	}
	fmt.Fprint(stdout, human)
	if runErr != nil {
		fmt.Fprintln(stdout, last)
		return nil, "", fmt.Errorf("child: %w", runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, "", fmt.Errorf("child printed no result line: %w", err)
	}
	return &res, last, nil
}
