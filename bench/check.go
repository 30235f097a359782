package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// stamp records where and how a result set was measured. Two sets are
// comparable only when everything but the commit agrees.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SIMD       string `json:"simd"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func newStamp(o options) stamp {
	return stamp{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: pinnedProcs,
		SIMD:       simdFeatures(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.traced,
	}
}

// gitCommit asks git for the checkout's commit; a tree that is not a git
// repository (the driver's checkout) stamps "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultSet is one complete run of the benchmark: every workload's result
// under one stamp.
type resultSet struct {
	Stamp     stamp              `json:"stamp"`
	Workloads map[string]*result `json:"workloads"`
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCheck compares result set b against a, metric by metric, with the
// end-to-end bounds: b may be worse than a by at most Bound × a. It
// fails by workload/metric name and refuses sets measured under
// different stamps (the commit may differ — that is the comparison).
func runCheck(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResultSet(pathA)
	b, errB := readResultSet(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench: check:", err)
		return 2
	}
	bad := compareSets(a, b, stdout)
	if len(bad) == 0 {
		fmt.Fprintln(stdout, "check: every metric within its bound")
		return 0
	}
	for _, name := range bad {
		fmt.Fprintln(stderr, "check: FAIL", name)
	}
	return 1
}

// compareSets returns the workload/metric names on which b regressed.
func compareSets(a, b *resultSet, out io.Writer) []string {
	sa, sb := a.Stamp, b.Stamp
	sa.Commit, sb.Commit = "", ""
	if sa != sb {
		fmt.Fprintf(out, "stamps differ:\n  a: %+v\n  b: %+v\n", a.Stamp, b.Stamp)
		return []string{"stamp"}
	}
	if sa.Traced {
		fmt.Fprintln(out, "traced result sets carry no end-to-end metrics; nothing to compare")
		return []string{"stamp"}
	}
	var bad []string
	for _, w := range workloadNames() {
		ra, rb := a.Workloads[w], b.Workloads[w]
		if ra == nil || rb == nil {
			bad = append(bad, w+"/missing")
			continue
		}
		if !rb.Correct || rb.Failed > ra.Failed {
			fmt.Fprintf(out, "%-16s correct=%v failed %d -> %d\n", w, rb.Correct, ra.Failed, rb.Failed)
			bad = append(bad, w+"/failed")
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := vb - va // lower is better
			if d.Better == "higher" {
				worse = va - vb
			}
			share := 0.0
			if va != 0 {
				share = worse / va
			}
			verdict := "ok"
			if share > d.Bound {
				verdict = "REGRESSION"
				bad = append(bad, w+"/"+d.Name)
			}
			fmt.Fprintf(out, "%-16s %-16s %12.5g -> %12.5g %-9s worse by %+6.2f%% (bound %.0f%%) %s\n",
				w, d.Name, va, vb, d.Unit, 100*share, 100*d.Bound, verdict)
		}
	}
	return bad
}
