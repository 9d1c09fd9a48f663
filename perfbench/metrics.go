package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the program sees; every workload
// reports all of them from an untraced run (--trace 0). README.md defines
// each one per workload.
var endToEnd = []metricSpec{
	{"jobs_per_s", "jobs/s"},
	{"ok_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the ledger metrics of the traced run (--trace 1); layers.json
// maps each to the end-to-end metric it should move and the workloads where
// its layer is busy or idle. A layer that is not on a workload's path
// reports 0.
var perLayer = []metricSpec{
	{"qopt.ns_per_call", "ns"},
	{"qopt.calls_per_job", "count"},
	{"qopt.trigger_share", "share"},
	{"qopt.share", "share"},
	{"cut.ns_per_call", "ns"},
	{"cut.calls_per_job", "count"},
	{"cut.share", "share"},
	{"dist.ns_per_call", "ns"},
	{"yds.peak_ns_per_call", "ns"},
	{"yds.plan_ns_per_call", "ns"},
	{"job.sort_edf_ns_per_call", "ns"},
	{"core.schedule_share", "share"},
	{"core.schedule_us_p50", "us"},
	{"core.schedule_us_p99", "us"},
	{"core.queue_jobs_mean", "jobs"},
	{"core.replay_coverage", "ratio"},
	{"sim.events_per_job", "count"},
	{"sched.invokes_per_job", "count"},
	{"sched.runtime_share", "share"},
	{"cluster.dispatch_ns_mean", "ns"},
	{"cluster.dispatches_per_job", "count"},
	{"cluster.redispatch_share", "share"},
	{"cluster.shard_event_imbalance", "ratio"},
	{"cluster.cpu_parallelism", "ratio"},
	{"gateway.self_ms_p50", "ms"},
	{"gateway.self_ms_p99", "ms"},
	{"gateway.attempts_per_request", "count"},
	{"gateway.hedge_share", "share"},
	{"server.self_ms_p50", "ms"},
	{"server.self_ms_p99", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.run_ms_p99", "ms"},
	{"server.reply_bytes_mean", "bytes"},
	{"server.shed_share", "share"},
	{"governor.cut_share", "share"},
	{"loadgen.late_ms_p99", "ms"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_share", "share"},
	{"trace.overhead_share", "share"},
}

// metricName is the shape every metric name must have: a letter or digit
// first, then at most 63 letters, digits, '_', '.' and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the shape of a unit: at most 16 letters, digits, '_', '/',
// '%', '.' and '-'.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkSpecs rejects a malformed or duplicated name or unit in specs.
func checkSpecs(specs []metricSpec) error {
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if !metricName.MatchString(s.name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", s.name)
		}
		if !metricUnit.MatchString(s.unit) {
			return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", s.name, s.unit)
		}
		if seen[s.name] {
			return fmt.Errorf("metric %s is listed twice", s.name)
		}
		seen[s.name] = true
	}
	return nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns a workload's measured values into the result line's metric
// object for specs. An end-to-end metric the workload did not measure is an
// error; a per-layer metric it did not measure reads 0 (the layer is not on
// its path). A measured name outside specs is an error too, so a typo cannot
// hide a metric.
func collect(specs []metricSpec, got map[string]float64, fillZero bool) (map[string]metricValue, error) {
	known := make(map[string]bool, len(specs))
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		known[s.name] = true
		v, ok := got[s.name]
		if !ok && !fillZero {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not finite: %v", s.name, v)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// peakRSSMiB is the process's peak resident set size in MiB: VmHWM from
// /proc/self/status, or getrusage's ru_maxrss where /proc is unavailable.
func peakRSSMiB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// goSnapshot is a point-in-time reading of the Go runtime's allocation and
// GC CPU counters and of the process CPU time; the difference of two
// readings gives the go.* metrics.
type goSnapshot struct {
	allocBytes, allocs uint64
	gcCPU, usedCPU     float64
}

func readGo() goSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The runtime brings its CPU estimates up to date at the end of each GC
	// cycle, which is when GC CPU time accrues; the process total comes from
	// getrusage, which is always current.
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	snap := goSnapshot{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs, usedCPU: cpuSeconds()}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = gc[0].Value.Float64()
	}
	return snap
}

// sub is the difference a − b of two readings.
func (a goSnapshot) sub(b goSnapshot) goSnapshot {
	return goSnapshot{
		allocBytes: a.allocBytes - b.allocBytes,
		allocs:     a.allocs - b.allocs,
		gcCPU:      a.gcCPU - b.gcCPU,
		usedCPU:    a.usedCPU - b.usedCPU,
	}
}

// add is the sum of two differences.
func (a goSnapshot) add(b goSnapshot) goSnapshot {
	return goSnapshot{
		allocBytes: a.allocBytes + b.allocBytes,
		allocs:     a.allocs + b.allocs,
		gcCPU:      a.gcCPU + b.gcCPU,
		usedCPU:    a.usedCPU + b.usedCPU,
	}
}

// goMetrics fills the go.* ledger entries from the runtime counters' growth
// d over ops operations.
func goMetrics(m map[string]float64, d goSnapshot, ops float64) {
	m["go.alloc_bytes_per_op"] = ratio(float64(d.allocBytes), ops)
	m["go.allocs_per_op"] = ratio(float64(d.allocs), ops)
	m["go.gc_cpu_share"] = ratio(d.gcCPU, d.usedCPU)
}
