package main

import (
	"fmt"
	"time"

	"goodenough/internal/cluster"
	"goodenough/internal/core"
	"goodenough/internal/cut"
	"goodenough/internal/dist"
	"goodenough/internal/job"
	"goodenough/internal/power"
	"goodenough/internal/qopt"
	"goodenough/internal/sched"
	"goodenough/internal/yds"
)

// clock accumulates the calls into one layer and the host time they took.
type clock struct {
	calls int64
	ns    int64
}

func (c *clock) add(since time.Time) {
	c.calls++
	c.ns += int64(time.Since(since))
}

func (c *clock) merge(o clock) {
	c.calls += o.calls
	c.ns += o.ns
}

func (c clock) nsPerCall() float64 { return ratio(float64(c.ns), float64(c.calls)) }

// ledger is what the timing policy records: the in-place Schedule calls,
// and the planning layers as timed by replaying each call's inputs.
type ledger struct {
	schedule    clock
	scheduleUS  []float32 // per-call Schedule durations, µs
	overheadNS  int64     // capture + replay time spent inside the wrapper
	queueJobs   int64     // Σ per-core queue lengths over non-empty cores
	queueCores  int64     // non-empty per-core queues planned
	cut, dist   clock
	peak, plan  clock
	sort, qopt  clock
	plans       int64 // per-core plans laid out by the replay
	targetsSeen int64 // jobs whose replayed target was compared
	targetsDiff int64 // ... and differed from the target Schedule set
}

func (l *ledger) merge(o *ledger) {
	l.schedule.merge(o.schedule)
	l.scheduleUS = append(l.scheduleUS, o.scheduleUS...)
	l.overheadNS += o.overheadNS
	l.queueJobs += o.queueJobs
	l.queueCores += o.queueCores
	l.cut.merge(o.cut)
	l.dist.merge(o.dist)
	l.peak.merge(o.peak)
	l.plan.merge(o.plan)
	l.sort.merge(o.sort)
	l.qopt.merge(o.qopt)
	l.plans += o.plans
	l.targetsSeen += o.targetsSeen
	l.targetsDiff += o.targetsDiff
}

// replayedNS is the host time of every planning layer the replay timed.
func (l *ledger) replayedNS() int64 {
	return l.cut.ns + l.dist.ns + l.peak.ns + l.plan.ns + l.sort.ns + l.qopt.ns
}

// planningMetrics fills the qopt/cut/dist/yds/job/core/sched entries of m.
// busyNS is the traced run's busy host time with the wrapper's own overhead
// taken out; jobs is the number of simulated jobs.
func (l *ledger) planningMetrics(m map[string]float64, busyNS float64, jobs float64) {
	m["qopt.ns_per_call"] = l.qopt.nsPerCall()
	m["qopt.calls_per_job"] = ratio(float64(l.qopt.calls), jobs)
	m["qopt.trigger_share"] = ratio(float64(l.qopt.calls), float64(l.plans))
	m["qopt.share"] = ratio(float64(l.qopt.ns), busyNS)
	m["cut.ns_per_call"] = l.cut.nsPerCall()
	m["cut.calls_per_job"] = ratio(float64(l.cut.calls), jobs)
	m["cut.share"] = ratio(float64(l.cut.ns), busyNS)
	m["dist.ns_per_call"] = l.dist.nsPerCall()
	m["yds.peak_ns_per_call"] = l.peak.nsPerCall()
	m["yds.plan_ns_per_call"] = l.plan.nsPerCall()
	m["job.sort_edf_ns_per_call"] = l.sort.nsPerCall()
	m["core.schedule_share"] = ratio(float64(l.schedule.ns), busyNS)
	us := make([]float64, len(l.scheduleUS))
	for i, v := range l.scheduleUS {
		us[i] = float64(v)
	}
	m["core.schedule_us_p50"] = percentile(us, 0.50)
	m["core.schedule_us_p99"] = percentile(us, 0.99)
	m["core.queue_jobs_mean"] = ratio(float64(l.queueJobs), float64(l.queueCores))
	m["core.replay_coverage"] = ratio(float64(l.replayedNS()), float64(l.schedule.ns))
	m["sched.invokes_per_job"] = ratio(float64(l.schedule.calls), jobs)
	m["sched.runtime_share"] = 1 - m["core.schedule_share"]
}

// timedPolicy is a sched.Policy around core.GE that times every Schedule
// call in place and then replays the call's per-core planning on copies of
// its inputs, timing each planning layer through its public entry point.
// The copies keep the replay from touching the simulation, so a traced run
// reproduces the untraced one bit for bit. One timedPolicy serves one
// machine; it is not safe for concurrent use.
type timedPolicy struct {
	inner *core.GE
	led   ledger

	// Capture scratch, reused across calls.
	pre     [][]*job.Job // per-core queues before Schedule
	waiting []*job.Job   // the waiting queue before Schedule
	after   []*job.Job
	inAfter map[*job.Job]bool
	index   map[*job.Job]int // real job -> slot in arena
	arena   []job.Job        // pre-Schedule copies of every job seen
	perCore [][]*job.Job     // per-core inputs as GE built them, as copies
	real    [][]*job.Job     // the real jobs matching perCore

	// Replay scratch.
	cutter                  cut.Cutter
	filler                  dist.Filler
	edf                     []*job.Job
	demands, peaks, compact []float64
	budgets                 []float64
	free                    []int
	plan                    []yds.Assignment
}

func newTimedPolicy(qge float64) *timedPolicy {
	return &timedPolicy{
		inner:   core.NewGE(qge),
		inAfter: make(map[*job.Job]bool),
		index:   make(map[*job.Job]int),
	}
}

// Name implements sched.Policy.
func (p *timedPolicy) Name() string { return p.inner.Name() }

// Reset implements sched.Policy.
func (p *timedPolicy) Reset() { p.inner.Reset() }

// Schedule implements sched.Policy.
func (p *timedPolicy) Schedule(ctx *sched.Context) {
	t0 := time.Now()
	p.capture(ctx)
	t1 := time.Now()
	p.inner.Schedule(ctx)
	t2 := time.Now()
	p.rebuild(ctx)
	p.replay(ctx)
	d := t2.Sub(t1)
	p.led.schedule.calls++
	p.led.schedule.ns += int64(d)
	p.led.scheduleUS = append(p.led.scheduleUS, float32(d.Seconds()*1e6))
	p.led.overheadNS += int64(t1.Sub(t0)) + int64(time.Since(t2))
}

// capture records each core's queue and the waiting queue, and copies every
// job's pre-Schedule state.
func (p *timedPolicy) capture(ctx *sched.Context) {
	cores := ctx.Server.Cores
	for len(p.pre) < len(cores) {
		p.pre = append(p.pre, nil)
	}
	clear(p.index)
	p.arena = p.arena[:0]
	keep := func(j *job.Job) {
		if _, ok := p.index[j]; !ok {
			p.index[j] = len(p.arena)
			p.arena = append(p.arena, *j)
		}
	}
	for i, c := range cores {
		p.pre[i] = c.AppendQueue(p.pre[i][:0])
		for _, j := range p.pre[i] {
			keep(j)
		}
	}
	p.waiting = append(p.waiting[:0], ctx.Waiting.Peek()...)
	for _, j := range p.waiting {
		keep(j)
	}
}

// rebuild reconstructs the per-core job lists GE.Schedule planned, in its
// order: the surviving part of each core's old queue, then the batch jobs
// it assigned there in batch order.
func (p *timedPolicy) rebuild(ctx *sched.Context) {
	cores := ctx.Server.Cores
	for len(p.perCore) < len(cores) {
		p.perCore = append(p.perCore, nil)
		p.real = append(p.real, nil)
	}
	clear(p.inAfter)
	for _, c := range cores {
		p.after = c.AppendQueue(p.after[:0])
		for _, j := range p.after {
			p.inAfter[j] = true
		}
	}
	for i := range cores {
		p.perCore[i], p.real[i] = p.perCore[i][:0], p.real[i][:0]
		for _, j := range p.pre[i] {
			if p.inAfter[j] {
				p.perCore[i] = append(p.perCore[i], &p.arena[p.index[j]])
				p.real[i] = append(p.real[i], j)
			}
		}
	}
	for _, j := range p.waiting {
		if c := j.Core; c >= 0 && c < len(cores) && p.inAfter[j] {
			cp := &p.arena[p.index[j]]
			cp.Core = c
			p.perCore[c] = append(p.perCore[c], cp)
			p.real[c] = append(p.real[c], j)
		}
	}
}

// replay runs GE's cut, power distribution and per-core planning steps on
// the copies, timing each layer call. It mirrors core.GE.Schedule for the
// configuration the workloads use: per-core cutting, hybrid ES/WF, a
// continuous speed model and no speed cap.
func (p *timedPolicy) replay(ctx *sched.Context) {
	cfg := ctx.Cfg
	now := ctx.Now
	cores := ctx.Server.Cores
	aes := p.inner.InAES()
	for i := range cores {
		jobs := p.perCore[i]
		if len(jobs) == 0 {
			continue
		}
		p.led.queueJobs += int64(len(jobs))
		p.led.queueCores++
		if aes {
			t := time.Now()
			p.cutter.LongestFirst(jobs, cfg.Quality, cfg.QGE)
			p.led.cut.add(t)
		} else {
			cut.Restore(jobs)
		}
	}

	budget := ctx.Budget
	if budget <= 0 {
		budget = cfg.PowerBudget
	}
	p.demands = resize(p.demands, len(cores))
	p.peaks = resize(p.peaks, len(cores))
	stuckDraw := 0.0
	for i, c := range cores {
		model := cfg.ModelFor(i)
		if !c.Healthy() {
			continue
		}
		if s := c.StuckSpeed(); s > 0 {
			if len(p.perCore[i]) > 0 {
				stuckDraw += model.Power(s)
			}
			p.peaks[i] = s
			continue
		}
		peak := 0.0
		if len(p.perCore[i]) > 0 {
			p.sortEDF(p.perCore[i])
			t := time.Now()
			peak = yds.PeakSpeedEDF(now, p.edf)
			p.led.peak.add(t)
		}
		if maxSpeed := model.Speed(budget); peak > maxSpeed {
			peak = maxSpeed
		}
		p.peaks[i] = peak
		p.demands[i] = model.Power(peak)
	}
	p.free = p.free[:0]
	for i, c := range cores {
		if c.Healthy() && c.StuckSpeed() <= 0 {
			p.free = append(p.free, i)
		}
	}
	p.compact = resize(p.compact, len(p.free))
	for k, i := range p.free {
		p.compact[k] = p.demands[i]
	}
	distributable := budget - stuckDraw
	if distributable < 0 {
		distributable = 0
	}
	heavy := ctx.ArrivalRate >= cfg.CriticalLoad
	t := time.Now()
	compactAlloc := p.filler.Distribute(dist.PolicyHybrid, distributable, p.compact, heavy)
	p.led.dist.add(t)
	alloc := resize(p.demands, len(cores)) // demands are consumed; reuse
	for k, i := range p.free {
		alloc[i] = compactAlloc[k]
	}

	for i, c := range cores {
		jobs := p.perCore[i]
		if !c.Healthy() || len(jobs) == 0 {
			continue
		}
		speedCap := cfg.ModelFor(i).Speed(alloc[i])
		if s := c.StuckSpeed(); s > 0 {
			speedCap = s
		}
		p.sortEDF(jobs)
		if speedCap <= 0 {
			continue
		}
		p.led.plans++
		t := time.Now()
		peak := yds.PeakSpeedEDF(now, p.edf)
		p.led.peak.add(t)
		if peak > speedCap*(1+1e-9) {
			t = time.Now()
			_, p.budgets = qopt.AllocateEDF(now, p.edf, power.Rate(speedCap), cfg.Quality, p.budgets)
			p.led.qopt.add(t)
		}
		t = time.Now()
		p.plan = yds.AppendPlanCommonRelease(p.plan[:0], now, p.edf, speedCap)
		p.led.plan.add(t)
		for k, cp := range jobs {
			p.led.targetsSeen++
			if cp.Target != p.real[i][k].Target {
				p.led.targetsDiff++
			}
		}
	}
}

// sortEDF copies jobs into the EDF scratch and sorts it, timing the sort.
func (p *timedPolicy) sortEDF(jobs []*job.Job) {
	p.edf = append(p.edf[:0], jobs...)
	t := time.Now()
	job.SortEDF(p.edf)
	p.led.sort.add(t)
}

// resize returns buf with n zeroed entries.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// timedDispatcher is a cluster.Dispatcher that times every Pick and
// forwards NoteIdle, so an idle-heap policy such as p2c keeps its fast
// path: the fleet only notifies dispatchers that implement NoteIdle, and
// without it p2c would scan all machines per pick.
type timedDispatcher struct {
	inner interface {
		cluster.Dispatcher
		NoteIdle(m int)
	}
	pick clock
}

func newTimedDispatcher(d cluster.Dispatcher) (*timedDispatcher, error) {
	in, ok := d.(interface {
		cluster.Dispatcher
		NoteIdle(m int)
	})
	if !ok {
		return nil, fmt.Errorf("dispatcher %s keeps no idle heap; the timing wrapper forwards NoteIdle only", d.Name())
	}
	return &timedDispatcher{inner: in}, nil
}

func (d *timedDispatcher) Name() string   { return d.inner.Name() }
func (d *timedDispatcher) Reset()         { d.inner.Reset() }
func (d *timedDispatcher) NoteIdle(m int) { d.inner.NoteIdle(m) }

func (d *timedDispatcher) Pick(v cluster.View) (int, float64, bool) {
	t := time.Now()
	m, score, ok := d.inner.Pick(v)
	d.pick.add(t)
	return m, score, ok
}
