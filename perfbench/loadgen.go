package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request, in seconds since the phase began: due is
// when the schedule wanted it sent.
type sample struct {
	id             int
	due, sent, end float64
	ok             bool
}

// latency is the request's time from when it was due to its reply, so a
// stall also counts against every request queued behind it.
func (s sample) latency() float64 { return s.end - s.due }

// late is how far behind schedule the generator sent the request.
func (s sample) late() float64 { return s.sent - s.due }

// doFunc sends request id and reports whether its reply passed every check
// and how many simulated jobs it carried.
type doFunc func(id int) (ok bool, jobs int)

// tally counts a closed loop's requests without keeping them, so the
// generator's memory, and with it the process's peak RSS, does not grow
// with the tier's throughput.
type tally struct {
	attempted, failed int
	width             float64
	// ok and jobs count, per whole window of width seconds by reply time,
	// the replies that passed their checks and the simulated jobs they
	// carried.
	ok, jobs []float64
}

// newTally splits a phase of the given length into whole windows of width
// seconds, or one window of the whole phase when it is shorter.
func newTally(length, width float64) *tally {
	n := int(length/width + 1e-9)
	if n < 1 {
		n, width = 1, length
	}
	return &tally{width: width, ok: make([]float64, n), jobs: make([]float64, n)}
}

// record counts one reply that arrived end seconds into the phase.
func (t *tally) record(end float64, ok bool, jobs int) {
	t.attempted++
	if !ok {
		t.failed++
		return
	}
	if w := int(end / t.width); w >= 0 && w < len(t.ok) {
		t.ok[w]++
		t.jobs[w] += float64(jobs)
	}
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for i := range t.ok {
		t.ok[i] += o.ok[i]
		t.jobs[i] += o.jobs[i]
	}
}

// rates returns, per whole window, the replies that passed their checks and
// the simulated jobs they carried, each per second.
func (t *tally) rates() (ok, jobs []float64) {
	ok = make([]float64, len(t.ok))
	jobs = make([]float64, len(t.jobs))
	for i := range t.ok {
		ok[i] = t.ok[i] / t.width
		jobs[i] = t.jobs[i] / t.width
	}
	return ok, jobs
}

// closedLoop runs workers clients that each send their next request as soon
// as the previous reply arrives, for duration from start, and tallies the
// replies in windows of width seconds. Request ids start at first.
func closedLoop(start time.Time, workers int, duration time.Duration, width float64, first int, do doFunc) *tally {
	var next atomic.Int64
	per := make([]*tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		per[w] = newTally(duration.Seconds(), width)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < duration {
				ok, jobs := do(first + int(next.Add(1)-1))
				per[w].record(time.Since(start).Seconds(), ok, jobs)
			}
		}()
	}
	wg.Wait()
	for _, t := range per[1:] {
		per[0].add(t)
	}
	return per[0]
}

// openLoop sends requests on a fixed schedule — request k is due k/rate
// seconds after start — for duration, from workers senders that each take
// the next due request when they are free. When every sender is busy the
// schedule keeps running, so requests go out late and their latency,
// measured from the due time, includes the wait. The samples are allocated
// before the first request, indexed by k.
func openLoop(start time.Time, workers int, rate float64, duration time.Duration, first int, do doFunc) []sample {
	total := 0
	for float64(total)/rate < duration.Seconds() {
		total++
	}
	samples := make([]sample, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				due := float64(k) / rate
				if wait := due - time.Since(start).Seconds(); wait > 0 {
					time.Sleep(time.Duration(wait * float64(time.Second)))
				}
				sent := time.Since(start).Seconds()
				ok, _ := do(first + k)
				end := time.Since(start).Seconds()
				samples[k] = sample{id: first + k, due: due, sent: sent, end: end, ok: ok}
			}
		}()
	}
	wg.Wait()
	return samples
}
