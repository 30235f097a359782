package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// errRefused marks a request the server refused under backpressure (queue
// full / 503). It is a failure like any other, reported separately so the
// ladder can tell a refusal from a wrong answer.
var errRefused = errors.New("bench: request refused (server overloaded)")

// poissonArrivals returns the arrival offsets of a Poisson process of the
// given rate over dur — a pure function of its arguments, so the same
// --seed replays the same schedule.
func poissonArrivals(seed uint64, rps float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([]time.Duration, 0, int(rps*dur.Seconds())+16)
	var at float64 // seconds
	for {
		at += rng.ExpFloat64() / rps
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// request is one completed request of a load phase, as offsets from the
// phase's start (a few hundred thousand of them are kept, so the record is
// small: the harness must not set the peak RSS it reports). Open-loop
// latency is timed from the instant the request was due, not from when it
// was sent, so a stall shows in the latency of every request due during it.
type request struct {
	due    time.Duration // open loop: scheduled instant; closed loop: send instant
	done   time.Duration
	late   time.Duration // open loop: how long after due the generator sent it
	failed bool
}

func (r request) latency() time.Duration { return r.done - r.due }

// phase is the outcome of one open- or closed-loop phase.
type phase struct {
	start    time.Time
	window   time.Duration // closed loop: measured; open loop: schedule length
	requests []request     // open loop: in schedule order
	errs     []error       // what the failed requests returned
}

func (p *phase) failed() (failed, refused int) {
	for _, err := range p.errs {
		if errors.Is(err, errRefused) {
			refused++
		}
	}
	return len(p.errs), refused
}

// latencies returns the sorted latencies (ns) of the requests that
// succeeded.
func (p *phase) latencies() []int64 {
	out := make([]int64, 0, len(p.requests))
	for _, r := range p.requests {
		if !r.failed {
			out = append(out, r.latency().Nanoseconds())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// windows cuts the phase into slices of the given width — by due instant
// for an open loop, which is also the send instant of a closed one — and
// drops a partial slice at the end; a phase shorter than four slices (a
// smoke run) is cut into four. perRequest is the number of samples one
// successful request completes.
func (p *phase) windows(width time.Duration, perRequest int) []window {
	if p.window < 4*width {
		width = p.window / 4
	}
	n := int(p.window / width)
	ws := make([]window, n)
	for i := range ws {
		ws[i].dur = width
	}
	for _, r := range p.requests {
		i := int(r.due / width)
		if r.failed || i >= n {
			continue
		}
		ws[i].samples += perRequest
		ws[i].latNs = append(ws[i].latNs, r.latency().Nanoseconds())
	}
	return ws
}

// meanLateMs is how late the generator ran, on average, in milliseconds.
func (p *phase) meanLateMs() float64 {
	if len(p.requests) == 0 {
		return 0
	}
	var sum time.Duration
	for _, r := range p.requests {
		sum += r.late
	}
	return float64(sum) / float64(len(p.requests)) / 1e6
}

// medianLateMs is the lateness of the typical request.
func (p *phase) medianLateMs() float64 {
	late := make([]float64, len(p.requests))
	for i, r := range p.requests {
		late[i] = float64(r.late) / 1e6
	}
	return median(late)
}

// maxGenLateMs is the open-loop validity rule: a phase in which the
// generator sent the typical request later than this did not offer the
// schedule it claims. The rule reads the median, not the mean: one 150 ms
// freeze of the whole process (the box does that) puts 2 ms into the mean
// of a 6 s phase without the generator being at fault, and the requests due
// during it already carry the freeze in their latency.
const maxGenLateMs = 1.0

// spinWindow is how close to an arrival the generator stops sleeping and
// yields in a loop instead: timer wake-ups on a virtualized box overshoot
// by about half a millisecond, which at 2000 rps would put that much
// generator lateness into every latency.
const spinWindow = time.Millisecond

// runOpen offers the schedule (arrival offsets within dur) regardless of
// how the system keeps up: one generator goroutine waits until the next
// arrival is due and starts one goroutine per due request. It returns once
// every request has completed.
func runOpen(arrivals []time.Duration, dur time.Duration, do func(i int) error) *phase {
	p := &phase{window: dur, requests: make([]request, len(arrivals))}
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards p.errs
	)
	wg.Add(len(arrivals))
	p.start = time.Now()
	for i := 0; i < len(arrivals); {
		now := time.Since(p.start)
		if wait := arrivals[i] - now; wait > 0 {
			if wait > spinWindow {
				time.Sleep(wait - spinWindow)
			} else {
				runtime.Gosched()
			}
			continue
		}
		// Send everything that is due; after a late wake-up that is a burst,
		// and each request's lateness records it.
		for ; i < len(arrivals) && arrivals[i] <= now; i++ {
			r := &p.requests[i]
			r.due, r.late = arrivals[i], now-arrivals[i]
			go func(i int) {
				defer wg.Done()
				err := do(i)
				r.done = time.Since(p.start)
				if err != nil {
					r.failed = true
					mu.Lock()
					p.errs = append(p.errs, err)
					mu.Unlock()
				}
			}(i)
		}
	}
	wg.Wait()
	return p
}

// runClosed keeps exactly `clients` requests in flight for dur: each
// client sends its next request only after the previous one completed.
func runClosed(clients int, dur time.Duration, do func(client, i int) error) *phase {
	var (
		mu   sync.Mutex // guards p
		next atomic.Int64
		wg   sync.WaitGroup
	)
	p := &phase{start: time.Now()}
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			var (
				mine []request
				errs []error
			)
			for {
				r := request{due: time.Since(p.start)}
				if r.due >= dur {
					break
				}
				err := do(c, int(next.Add(1)-1))
				r.done = time.Since(p.start)
				if err != nil {
					r.failed = true
					errs = append(errs, err)
				}
				mine = append(mine, r)
			}
			mu.Lock()
			p.requests = append(p.requests, mine...)
			p.errs = append(p.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.window = time.Since(p.start)
	return p
}
