package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"goodenough/internal/cluster"
	"goodenough/internal/core"
	"goodenough/internal/faults"
	"goodenough/internal/sched"
	"goodenough/internal/workload"
)

// The simulated workloads. Their inputs are seeds drawn from a fixed pool
// whose results were recorded from the public entry points (reference.json),
// so every run checks each simulation it times.
const (
	qge = 0.9

	// sim-overload: one paper machine at twice the critical load, random
	// 150–500 ms windows. GE starts in AES mode and falls to BQ within the
	// first second, so 30 s of arrivals is already BQ-dominated, and a run
	// walks the whole seed pool several times.
	simRate     = 308
	simDuration = 30

	// fleet-chaos: 200 machines at the per-machine critical load, fixed
	// 150 ms windows, p2c dispatch, crash/recover renewal per machine. In
	// interleaved runs on a shared 2-vCPU host, 1000 machines spread 11%
	// in jobs_per_s where 200 spread 3.5%, and a 40 s run now holds over a
	// hundred simulations rather than about fifteen. 200 machines still run
	// on the default two shards.
	fleetMachines = 200
	fleetRate     = 154 * fleetMachines
	fleetDuration = 2
	fleetMTBF     = 20
	fleetMTTR     = 2
)

func simSpec(seed uint64) workload.Spec {
	return workload.Spec{
		ArrivalRate: simRate, ParetoAlpha: 3, Xmin: 130, Xmax: 1000,
		Window: 0.15, RandomWindow: true, WindowMin: 0.15, WindowMax: 0.5,
		Duration: simDuration, Seed: seed,
	}
}

// newSim builds the sim-overload runner; this is its set-up.
func newSim(seed uint64, policy sched.Policy) (*sched.Runner, error) {
	return sched.NewRunner(sched.Defaults(), policy, simSpec(seed))
}

// fleetConfig builds the fleet-chaos configuration. For the traced run,
// wrapDispatch decorates the dispatcher and newPolicy builds each machine's
// policy; nil keeps the plain ones.
func fleetConfig(seed uint64, wrapDispatch func(cluster.Dispatcher) (cluster.Dispatcher, error),
	newPolicy func() sched.Policy) (cluster.Config, error) {
	disp, err := cluster.NewDispatcher("p2c", 2, seed)
	if err != nil {
		return cluster.Config{}, err
	}
	if wrapDispatch != nil {
		if disp, err = wrapDispatch(disp); err != nil {
			return cluster.Config{}, err
		}
	}
	cs, err := faults.GenerateCluster(seed, fleetMachines, fleetDuration, fleetMTBF, fleetMTTR)
	if err != nil {
		return cluster.Config{}, err
	}
	if newPolicy == nil {
		newPolicy = func() sched.Policy { return core.NewGE(qge) }
	}
	return cluster.Config{
		Machines:  fleetMachines,
		Node:      sched.Defaults(),
		NewPolicy: newPolicy,
		Dispatch:  disp,
		Workload: workload.Spec{
			ArrivalRate: fleetRate, ParetoAlpha: 3, Xmin: 130, Xmax: 1000,
			Window: 0.15, Duration: fleetDuration, Seed: seed,
		},
		Faults: cs,
	}, nil
}

// newFleet builds the fleet-chaos fleet; this is its set-up.
func newFleet(seed uint64) (*cluster.Fleet, error) {
	cfg, err := fleetConfig(seed, nil, nil)
	if err != nil {
		return nil, err
	}
	return cluster.New(cfg)
}

// simOp is one timed simulation of the untraced loop.
type simOp struct {
	setup, run time.Duration
	jobs       int
	ok         bool
}

// runSims runs whole simulations over the seed sequence until the budget is
// spent (at least one), checking each against the reference, and reports the
// end-to-end metrics. An operation is one whole simulation.
func runSims(o *outcome, seeds func() uint64, budget time.Duration, once func(seed uint64) (simOp, error)) error {
	var ops []simOp
	start := time.Now()
	for len(ops) == 0 || time.Since(start) < budget {
		// Each simulation starts from a collected heap, so one run's garbage
		// is not billed to the next and the peak RSS does not depend on
		// where a collection happened to fall.
		runtime.GC()
		op, err := once(seeds())
		if err != nil {
			return err
		}
		o.attempted++
		if !op.ok {
			o.failed++
		}
		ops = append(ops, op)
	}
	simMetrics(o, ops)
	return nil
}

// simMetrics turns the untraced loop into the end-to-end metrics.
func simMetrics(o *outcome, ops []simOp) {
	rates := make([]float64, 0, len(ops))
	lat := make([]float64, 0, len(ops))
	setup := make([]float64, 0, len(ops))
	okCount := 0
	for _, op := range ops {
		rates = append(rates, float64(op.jobs)/op.run.Seconds())
		lat = append(lat, op.run.Seconds()*1e3)
		setup = append(setup, op.setup.Seconds())
		if op.ok {
			okCount++
		}
	}
	o.metrics["jobs_per_s"] = median(rates)
	o.metrics["ok_per_s"] = float64(okCount) / float64(len(ops)) / (median(lat) / 1e3)
	o.metrics["latency_p50_ms"] = percentile(lat, 0.50)
	o.metrics["setup_s"] = median(setup)
	o.metrics["peak_rss_mb"] = peakRSSMiB()
	o.detail["operations"] = len(ops)
	o.detail["latency_samples"] = len(lat)
	o.detail["latency_p90_ms"] = percentile(lat, 0.90)
	o.detail["latency_p99_ms"] = percentile(lat, 0.99)
}

// simOnce is one untraced sim-overload operation.
func simOnce(ref *references) func(seed uint64) (simOp, error) {
	return func(seed uint64) (simOp, error) {
		t0 := time.Now()
		r, err := newSim(seed, core.NewGE(qge))
		if err != nil {
			return simOp{}, err
		}
		t1 := time.Now()
		res, err := r.Run()
		t2 := time.Now()
		if err != nil {
			return simOp{}, err
		}
		return simOp{setup: t1.Sub(t0), run: t2.Sub(t1), jobs: res.Jobs,
			ok: ref.checkSim(seed, res) == nil}, nil
	}
}

// fleetOnce is one untraced fleet-chaos operation.
func fleetOnce(ref *references) func(seed uint64) (simOp, error) {
	return func(seed uint64) (simOp, error) {
		t0 := time.Now()
		f, err := newFleet(seed)
		if err != nil {
			return simOp{}, err
		}
		t1 := time.Now()
		res, err := f.Run()
		t2 := time.Now()
		if err != nil {
			return simOp{}, err
		}
		return simOp{setup: t1.Sub(t0), run: t2.Sub(t1), jobs: res.Jobs,
			ok: ref.checkFleet(seed, res) == nil}, nil
	}
}

// traceSimOverload pairs an untraced and a traced run of the same seed until
// the budget is spent: the untraced run gives the Go-runtime figures and the
// overhead base, the traced one the planning ledger. The two must agree bit
// for bit, events included.
func traceSimOverload(o *outcome, seeds func() uint64, budget time.Duration, ref *references) error {
	var led ledger
	var jobs, events, busyNS, plainS, tracedS float64
	var goDelta goSnapshot
	start := time.Now()
	for pairs := 0; pairs == 0 || time.Since(start) < budget; pairs++ {
		seed := seeds()
		runtime.GC()
		plain, err := newSim(seed, core.NewGE(qge))
		if err != nil {
			return err
		}
		g0 := readGo()
		t0 := time.Now()
		want, err := plain.Run()
		t1 := time.Now()
		g1 := readGo()
		if err != nil {
			return err
		}
		goDelta = goDelta.add(g1.sub(g0))

		runtime.GC()
		tp := newTimedPolicy(qge)
		traced, err := newSim(seed, tp)
		if err != nil {
			return err
		}
		t2 := time.Now()
		got, err := traced.Run()
		t3 := time.Now()
		if err != nil {
			return err
		}
		o.attempted++
		if ref.checkSim(seed, want) != nil {
			o.failed++
		}
		if !reflect.DeepEqual(got, want) || traced.EventsProcessed() != plain.EventsProcessed() {
			o.fidelity = append(o.fidelity, fmt.Sprintf("seed %d: traced run differs from the untraced run", seed))
		}
		led.merge(&tp.led)
		jobs += float64(want.Jobs)
		events += float64(plain.EventsProcessed())
		plainS += t1.Sub(t0).Seconds()
		tracedS += t3.Sub(t2).Seconds()
		busyNS += float64(t3.Sub(t2)) - float64(tp.led.overheadNS)
	}
	led.planningMetrics(o.metrics, busyNS, jobs)
	o.metrics["sim.events_per_job"] = ratio(events, jobs)
	goMetrics(o.metrics, goDelta, jobs)
	o.metrics["trace.overhead_share"] = tracedS/plainS - 1
	o.detail["replay_target_mismatch_share"] = ratio(float64(led.targetsDiff), float64(led.targetsSeen))
	o.detail["traced_runs"] = o.attempted
	return nil
}

// traceFleetChaos is traceSimOverload for the fleet, with one timing policy
// per machine (merged after Run, so shard goroutines never share one) and a
// timing dispatcher.
func traceFleetChaos(o *outcome, seeds func() uint64, budget time.Duration, ref *references) error {
	var led ledger
	var pick clock
	var jobs, events, busyNS, plainS, tracedS, plainCPU, redispatches float64
	var imbalance []float64
	var goDelta goSnapshot
	start := time.Now()
	for pairs := 0; pairs == 0 || time.Since(start) < budget; pairs++ {
		seed := seeds()
		runtime.GC()
		plain, err := newFleet(seed)
		if err != nil {
			return err
		}
		g0 := readGo()
		c0, t0 := cpuSeconds(), time.Now()
		want, err := plain.Run()
		c1, t1 := cpuSeconds(), time.Now()
		g1 := readGo()
		if err != nil {
			return err
		}
		goDelta = goDelta.add(g1.sub(g0))

		runtime.GC()
		var policies []*timedPolicy
		var td *timedDispatcher
		cfg, err := fleetConfig(seed,
			func(d cluster.Dispatcher) (cluster.Dispatcher, error) {
				var err error
				td, err = newTimedDispatcher(d)
				return td, err
			},
			func() sched.Policy {
				p := newTimedPolicy(qge)
				policies = append(policies, p)
				return p
			})
		if err != nil {
			return err
		}
		traced, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		c2, t2 := cpuSeconds(), time.Now()
		got, err := traced.Run()
		c3, t3 := cpuSeconds(), time.Now()
		if err != nil {
			return err
		}
		o.attempted++
		if ref.checkFleet(seed, want) != nil {
			o.failed++
		}
		if !reflect.DeepEqual(got, want) || traced.EventsProcessed() != plain.EventsProcessed() {
			o.fidelity = append(o.fidelity, fmt.Sprintf("seed %d: traced fleet differs from the untraced fleet", seed))
		}
		var overhead int64
		for _, p := range policies {
			led.merge(&p.led)
			overhead += p.led.overheadNS
		}
		pick.merge(td.pick)
		jobs += float64(want.Jobs)
		events += float64(plain.EventsProcessed())
		redispatches += float64(want.Redispatches)
		plainS += t1.Sub(t0).Seconds()
		plainCPU += c1 - c0
		tracedS += t3.Sub(t2).Seconds()
		// Shards run in parallel, so layer shares are taken of CPU time.
		busyNS += (c3-c2)*1e9 - float64(overhead)
		imbalance = append(imbalance, shardImbalance(want.ShardEvents))
	}
	led.planningMetrics(o.metrics, busyNS, jobs)
	o.metrics["sim.events_per_job"] = ratio(events, jobs)
	o.metrics["cluster.dispatch_ns_mean"] = pick.nsPerCall()
	o.metrics["cluster.dispatches_per_job"] = ratio(float64(pick.calls), jobs)
	o.metrics["cluster.redispatch_share"] = ratio(redispatches, float64(pick.calls))
	o.metrics["cluster.shard_event_imbalance"] = mean(imbalance)
	o.metrics["cluster.cpu_parallelism"] = ratio(plainCPU, plainS)
	goMetrics(o.metrics, goDelta, jobs)
	o.metrics["trace.overhead_share"] = tracedS/plainS - 1
	o.detail["replay_target_mismatch_share"] = ratio(float64(led.targetsDiff), float64(led.targetsSeen))
	o.detail["traced_runs"] = o.attempted
	return nil
}

// shardImbalance is the busiest shard's event count over the mean.
func shardImbalance(events []int64) float64 {
	if len(events) == 0 {
		return 0
	}
	var maxEv, sum int64
	for _, e := range events {
		sum += e
		if e > maxEv {
			maxEv = e
		}
	}
	return ratio(float64(maxEv)*float64(len(events)), float64(sum))
}
