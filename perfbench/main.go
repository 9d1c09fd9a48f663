// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed host-time budget and prints, as the last line of its
// output, one JSON object with the correctness verdict and the metrics:
//
//	bash perfbench/run.sh --workload sim-overload --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 is a
// separate run that times every layer from outside and prints the
// per-layer ledger instead. README.md defines the workloads and metrics,
// and layers.json maps each layer metric to the end-to-end metric it moves.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outcome is what one workload run produces.
type outcome struct {
	attempted, failed int
	// fidelity lists differences between a traced run and its untraced
	// twin; any entry makes the run incorrect.
	fidelity []string
	metrics  map[string]float64
	// detail holds sample counts and diagnostics printed before the result.
	detail map[string]any
}

// workloadFn runs one workload for the budget, with inputs made from seed.
type workloadFn func(o *outcome, seed uint64, budget time.Duration, trace bool) error

var workloads = map[string]workloadFn{
	"sim-overload": func(o *outcome, seed uint64, budget time.Duration, trace bool) error {
		ref, err := loadReferences()
		if err != nil {
			return err
		}
		seeds := poolSeeds(seed, simPool)
		if trace {
			return traceSimOverload(o, seeds, budget, ref)
		}
		return runSims(o, seeds, budget, simOnce(ref))
	},
	"fleet-chaos": func(o *outcome, seed uint64, budget time.Duration, trace bool) error {
		ref, err := loadReferences()
		if err != nil {
			return err
		}
		seeds := poolSeeds(seed, fleetPool)
		if trace {
			return traceFleetChaos(o, seeds, budget, ref)
		}
		return runSims(o, seeds, budget, fleetOnce(ref))
	},
	"serve-gateway": func(o *outcome, seed uint64, budget time.Duration, trace bool) error {
		return runServeGateway(o, seed, budget, trace)
	},
}

// splitmix64 is the benchmark's own seed expander.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// poolSeeds returns a generator walking a seed-determined permutation of the
// pool seeds 1..n, cyclically.
func poolSeeds(seed uint64, n int) func() uint64 {
	perm := make([]uint64, n)
	for i := range perm {
		perm[i] = uint64(i + 1)
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := 0
	return func() uint64 {
		s := perm[next%n]
		next++
		return s
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: sim-overload, fleet-chaos or serve-gateway")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 40, "host seconds to measure")
	trace := fl.Int("trace", 0, "1 runs the traced ledger instead of the end-to-end metrics")
	recordTo := fl.String("record", "", "record the reference outcomes of every pool seed to this file and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *recordTo != "" {
		return record(*recordTo)
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	if err := checkSpecs(specs); err != nil {
		return err
	}

	stamp := hostStamp(*name, *seed, *trace == 1)
	line, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stamp %s\n", line)

	o := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	if err := wl(o, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		return err
	}
	metrics, err := collect(specs, o.metrics, *trace == 1)
	if err != nil {
		return err
	}
	if len(o.fidelity) > 0 {
		o.detail["fidelity"] = o.fidelity
	}
	if line, err = json.Marshal(o.detail); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "detail %s\n", line)
	res := result{
		Correct:   o.attempted > 0 && o.failed == 0 && len(o.fidelity) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}
	if line, err = json.Marshal(res); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostStamp is the provenance printed with every run: host, toolchain,
// program version and inputs.
func hostStamp(workload string, seed uint64, trace bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"trace":         trace,
		"cpu_model":     cpuModel(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod files under root,
// so a run identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
