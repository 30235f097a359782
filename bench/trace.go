package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Every span of one step,
// round or request shares Op; Parent is the span that caused it (0 for a
// root). Spans are recorded from the benchmark's own files, around calls
// into each layer's public functions.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory and writes them out when the workload
// ends. It is safe for concurrent use (the serve decorators record from
// the server's worker goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// op returns a fresh operation identifier.
func (t *tracer) op() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span now and returns its id.
func (t *tracer) begin(op int64, parent int, layer, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// rename relabels a span (a step that turned out to be the end-of-epoch
// reshuffle).
func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// durNs returns a closed span's duration.
func (t *tracer) durNs(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].dur()
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(op int64, parent int, layer, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// total sums the duration and count of the spans with this layer and name.
func (t *tracer) total(layer, name string) (ns int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			ns += s.dur()
			n++
		}
	}
	return ns, n
}

// selfNs returns, for the spans with this layer and name, their summed
// duration and summed self time: a span's duration minus the part of its
// interval its child spans cover.
func (t *tracer) selfNs(layer, name string) (total, self int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Layer != layer || s.Name != name {
			continue
		}
		total += s.dur()
		self += s.dur() - covered(children[s.ID], s.StartNs, s.EndNs)
	}
	return total, self
}

// covered returns how much of [lo, hi] the spans cover (their union).
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	var sum int64
	at := lo
	for _, s := range spans {
		a, b := s.StartNs, s.EndNs
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// write stores the spans as out/<workload>.trace.json under the working
// directory (bench/ when run through `go run -C bench .`).
func (t *tracer) write(workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, workload+".trace.json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// outDir holds everything a run leaves behind: traces and the temporary
// checkpoint directories of dist_ps and serve_*. It is listed in the
// repository's .gitignore.
const outDir = "out"
