package main

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestArrivalsArePureFunctionOfSeed(t *testing.T) {
	a := poissonArrivals(7, 2000, time.Second)
	b := poissonArrivals(7, 2000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if c := poissonArrivals(8, 2000, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 1 s at 2000 rps", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d = %v is out of order or past the window", i, a[i])
		}
	}
}

// A server that stalls once delays every request due during the stall. An
// open loop timed from the due instant must show that in each of their
// latencies; timing from the send, or sending only after the previous
// reply, would hide it.
func TestOpenLoopReportsStallFromDue(t *testing.T) {
	const (
		gap      = 2 * time.Millisecond
		n        = 60
		staller  = 10
		stallFor = 40 * time.Millisecond
	)
	arrivals := make([]time.Duration, n)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * gap
	}
	var server sync.Mutex // a fake one-at-a-time classifier
	var stallEndAt time.Time
	p := runOpen(arrivals, n*gap, func(i int) error {
		server.Lock()
		defer server.Unlock()
		if i == staller {
			time.Sleep(stallFor)
			stallEndAt = time.Now()
		}
		return nil
	})
	stallEnd := stallEndAt.Sub(p.start)
	if failed, _ := p.failed(); failed != 0 {
		t.Fatalf("%d failed", failed)
	}
	during := 0
	for i, r := range p.requests[staller+1:] {
		if r.due >= stallEnd {
			break
		}
		during++
		if owed := stallEnd - r.due; r.latency() < owed {
			t.Errorf("request %d was due %v before the stall ended but reports %v", staller+1+i, owed, r.latency())
		}
	}
	if during < 10 {
		t.Fatalf("only %d requests were due during the stall; the generator did not keep to its schedule", during)
	}
	// The requests before the stall are unaffected.
	if lat := p.requests[0].latency(); lat > stallFor/2 {
		t.Errorf("request 0 took %v", lat)
	}
}

func TestLatenessIsReportedAndInvalidatesTheRun(t *testing.T) {
	late := func(d time.Duration) *phase {
		return &phase{requests: []request{
			{done: time.Millisecond, late: d},
			{done: time.Millisecond, late: d},
			{done: time.Millisecond, late: d},
		}}
	}
	if got := late(500 * time.Microsecond).meanLateMs(); got != 0.5 {
		t.Fatalf("mean lateness %v ms, want 0.5", got)
	}
	for _, tc := range []struct {
		late    time.Duration
		invalid bool
	}{{900 * time.Microsecond, false}, {1100 * time.Microsecond, true}} {
		var log bytes.Buffer
		r := &run{workload: wServeOpen, log: &log, vals: map[string]float64{}}
		checkLateness(r, late(tc.late))
		if got := len(r.invalid) > 0; got != tc.invalid {
			t.Errorf("lateness %v: invalid=%v, want %v", tc.late, got, tc.invalid)
		}
		if _, ok := r.vals["serve.gen_late_ms_mean"]; !ok {
			t.Error("lateness not reported")
		}
		if tc.invalid && r.finish().Correct {
			t.Error("an invalid run reported correct")
		}
	}
	// One freeze of the whole process is not the generator's fault: the mean
	// reports it, the rule does not fire.
	var log bytes.Buffer
	r := &run{workload: wServeOpen, log: &log, vals: map[string]float64{}}
	frozen := late(10 * time.Microsecond)
	frozen.requests[0].late = 100 * time.Millisecond
	checkLateness(r, frozen)
	if len(r.invalid) != 0 || r.vals["serve.gen_late_ms_mean"] < 30 {
		t.Errorf("one frozen request: invalid=%v mean=%v", r.invalid, r.vals["serve.gen_late_ms_mean"])
	}
}

func TestClosedLoopKeepsClientsInFlight(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	p := runClosed(4, 50*time.Millisecond, func(_, _ int) error {
		mu.Lock()
		inflight++
		peak = max(peak, inflight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return nil
	})
	if peak != 4 {
		t.Errorf("peak in flight %d, want 4", peak)
	}
	if len(p.requests) < 40 {
		t.Errorf("only %d requests completed", len(p.requests))
	}
}
