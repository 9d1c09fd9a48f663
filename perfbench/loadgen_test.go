package main

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// A request that stalls must push the measured latency of every request due
// behind it: the open loop times from the due time, not the send time.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 30 * time.Millisecond
	do := func(id int) (bool, int) {
		if id == 0 {
			time.Sleep(stall)
		}
		return true, 1
	}
	samples := openLoop(time.Now(), 1, 1000, 20*time.Millisecond, 0, do)
	sort.Slice(samples, func(i, j int) bool { return samples[i].id < samples[j].id })
	if len(samples) != 20 {
		t.Fatalf("sent %d requests, want 20 (one per ms for 20 ms)", len(samples))
	}
	for _, s := range samples[1:] {
		// Request k was due at k ms but could not go out before the stall
		// ended at 30 ms.
		wantLate := stall.Seconds() - s.due
		if s.late() < wantLate-1e-3 {
			t.Errorf("request %d: late %.1f ms, want at least %.1f ms", s.id, s.late()*1e3, wantLate*1e3)
		}
		if s.latency() < s.late() {
			t.Errorf("request %d: latency %.3f s below its lateness %.3f s", s.id, s.latency(), s.late())
		}
	}
	if got := samples[0].latency(); got < stall.Seconds() {
		t.Errorf("stalled request latency %.1f ms, want at least %v", got*1e3, stall)
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	tl := closedLoop(time.Now(), 2, 20*time.Millisecond, 0.01, 100, func(id int) (bool, int) {
		mu.Lock()
		if id < 100 || seen[id] {
			t.Errorf("request id %d out of range or repeated", id)
		}
		seen[id] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return true, 3
	})
	if tl.attempted < 4 || tl.attempted != len(seen) || tl.failed != 0 {
		t.Fatalf("closed loop tallied %d requests (%d failed) for %d sent in 20 ms with 2 clients, want many",
			tl.attempted, tl.failed, len(seen))
	}
	if len(tl.ok) != 2 || tl.ok[0] == 0 {
		t.Errorf("windows %v, want two, the first with replies", tl.ok)
	}
}

func TestTallyRates(t *testing.T) {
	tl := newTally(1.1, 0.5)
	tl.record(0.1, true, 10)
	tl.record(0.4, true, 10)
	tl.record(0.6, true, 20)
	tl.record(0.7, false, 5)
	tl.record(1.2, true, 1) // past the last whole window
	other := newTally(1.1, 0.5)
	other.record(0.2, true, 2)
	tl.add(other)
	if tl.attempted != 6 || tl.failed != 1 {
		t.Errorf("attempted %d failed %d, want 6 and 1", tl.attempted, tl.failed)
	}
	ok, jobs := tl.rates()
	wantOK, wantJobs := []float64{6, 2}, []float64{44, 40}
	if len(ok) != len(wantOK) {
		t.Fatalf("rates over %d windows, want %d", len(ok), len(wantOK))
	}
	for i := range wantOK {
		if ok[i] != wantOK[i] || jobs[i] != wantJobs[i] {
			t.Fatalf("rates = %v %v, want %v %v", ok, jobs, wantOK, wantJobs)
		}
	}
	if short := newTally(0.3, 0.5); len(short.ok) != 1 || short.width != 0.3 {
		t.Errorf("a phase shorter than a window got %d windows of %v s, want one of 0.3 s", len(short.ok), short.width)
	}
}
