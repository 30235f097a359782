package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json must be the registry, and the registry must stay inside
// the limits the driver enforces.
func TestManifestMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := registryManifest(); !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	e2e := map[string]bool{}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		e2e[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if !reflect.DeepEqual(d.On, onAll) {
			t.Errorf("%s: an end-to-end metric is reported by every workload", d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	for _, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("%s: layer %q is not the name's prefix", d.Name, d.Layer)
		}
		if !e2e[d.Moves] {
			t.Errorf("%s: moves %q, which is not an end-to-end metric", d.Name, d.Moves)
		}
		if len(d.On) == 0 || d.Why == "" {
			t.Errorf("%s: names no workload or no reason", d.Name)
		}
		for _, w := range d.On {
			if findWorkload(w) == nil {
				t.Errorf("%s: unknown workload %q", d.Name, w)
			}
		}
	}
}

// Every workload, smoke-sized, in both passes: the correctness checks are
// on, nothing fails, and the result carries exactly the declared metrics.
// A per-layer metric must be measured (non-zero or a count) on the
// workloads it names.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute; the schema is checked by TestManifestMatchesRegistry")
	}
	if raceEnabled {
		t.Skip("timing-sensitive: see race_on_test.go")
	}
	dir := t.TempDir()
	t.Chdir(dir) // the workloads write under ./out
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, err := runWorkload(&w, options{seed: 3, seconds: 1, traced: traced}, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.Name, traced, d.Name, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(outDir, w.Name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(outDir, "run-*")); len(left) != 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	tr := newTracer()
	at := tr.t0
	ms := func(n int) (d int64) { return int64(n) * 1e6 }
	parent := tr.add(1, 0, "train", "step", at, at.Add(10e6))
	tr.add(1, parent, "nn", "conv_fwd", at.Add(1e6), at.Add(4e6))
	tr.add(1, parent, "nn", "conv_bwd", at.Add(3e6), at.Add(6e6)) // overlaps the first by 1 ms
	tr.add(1, parent, "optim", "step", at.Add(8e6), at.Add(9e6))
	total, self := tr.selfNs("train", "step")
	if total != ms(10) || self != ms(4) {
		t.Errorf("total %d self %d, want 10 ms and 4 ms", total, self)
	}
}

func TestCheckFailsByNameAndRefusesForeignStamps(t *testing.T) {
	set := func(throughput float64) *resultSet {
		s := &resultSet{Stamp: stamp{GoVersion: "go", Seed: 1, Seconds: 15}, Workloads: map[string]*result{}}
		for _, w := range workloads {
			r := &result{Correct: true, Attempted: 1, Metrics: map[string]value{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = value{Value: 1, Unit: d.Unit}
			}
			s.Workloads[w.Name] = r
		}
		s.Workloads[wServeHTTP].Metrics["throughput_sps"] = value{Value: throughput, Unit: "samples/s"}
		return s
	}
	var out bytes.Buffer
	// throughput_sps may worsen by a quarter.
	if bad := compareSets(set(1), set(0.80), &out); len(bad) != 0 {
		t.Errorf("20%% below a 25%% bound failed: %v", bad)
	}
	if bad := compareSets(set(1), set(0.70), &out); !reflect.DeepEqual(bad, []string{wServeHTTP + "/throughput_sps"}) {
		t.Errorf("30%% below a 25%% bound: %v", bad)
	}
	if bad := compareSets(set(1), set(1.5), &out); len(bad) != 0 {
		t.Errorf("an improvement failed: %v", bad)
	}
	other := set(1)
	other.Stamp.Seed = 2
	if bad := compareSets(set(1), other, &out); !reflect.DeepEqual(bad, []string{"stamp"}) {
		t.Errorf("sets measured on different seeds were compared: %v", bad)
	}
	other = set(1)
	other.Stamp.Commit = "abc1234"
	if bad := compareSets(set(1), other, &out); len(bad) != 0 {
		t.Errorf("a different commit is what check compares: %v", bad)
	}
	broken := set(1)
	broken.Workloads[wDistPS].Failed = 3
	if bad := compareSets(set(1), broken, &out); !reflect.DeepEqual(bad, []string{wDistPS + "/failed"}) {
		t.Errorf("new failures: %v", bad)
	}
}
