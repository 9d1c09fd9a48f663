// Command gebench turns `go test -bench` output into a machine-readable
// JSON baseline and gates candidate runs against a committed one.
//
// Parse mode (default) reads benchmark text on stdin and writes JSON:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./... | gebench > bench.json
//
// Multiple -count samples of the same benchmark are folded to the BEST
// observation (minimum ns/op and allocs/op, maximum events/sec): the gate
// asks "can the code still run this fast", so scheduler noise should never
// manufacture a regression.
//
// Check mode compares a candidate against a baseline:
//
//	gebench -check -baseline BENCH_BASELINE.json -candidate bench.json
//
// It exits nonzero if any benchmark present in both files regresses: ns/op
// above baseline×(1+tolerance), or allocs/op above the baseline at all (the
// kernel's 0 allocs/op is an exact contract, not a statistic). Benchmarks
// present on only one side are reported but never fail the gate, so adding
// or retiring a benchmark does not break CI.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's folded measurements.
type Result struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// File is the on-disk JSON shape. Previous carries the pre-optimization
// numbers forward so the history of the hot path stays in the repo.
type File struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
	Previous   map[string]Result `json:"previous,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// stripProcs removes the -N GOMAXPROCS suffix go test appends to names.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parse folds benchmark text into best-observation results.
func parse(r *bufio.Scanner) (map[string]Result, error) {
	out := make(map[string]Result)
	seen := make(map[string]bool)
	for r.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(r.Text()))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(stripProcs(m[1]), "Benchmark")
		fields := strings.Fields(m[2])
		res := Result{}
		ok := false
		for i := 1; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "allocs/op":
				res.AllocsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "events/sec":
				res.EventsPerSec = v
			}
		}
		if !ok {
			continue
		}
		if prev, dup := out[name]; dup && seen[name] {
			if prev.NsPerOp < res.NsPerOp {
				res.NsPerOp = prev.NsPerOp
			}
			if prev.AllocsPerOp < res.AllocsPerOp {
				res.AllocsPerOp = prev.AllocsPerOp
			}
			if prev.BytesPerOp < res.BytesPerOp {
				res.BytesPerOp = prev.BytesPerOp
			}
			if prev.EventsPerSec > res.EventsPerSec {
				res.EventsPerSec = prev.EventsPerSec
			}
		}
		out[name] = res
		seen[name] = true
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on input")
	}
	return out, nil
}

func load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Benchmarks == nil {
		// Accept a bare {name: result} map too.
		if err := json.Unmarshal(data, &f.Benchmarks); err != nil {
			return f, fmt.Errorf("%s: no \"benchmarks\" key and not a bare map: %w", path, err)
		}
	}
	return f, nil
}

// check gates cand against base, writing one line per benchmark to w, and
// returns the exit status: 0 when every shared benchmark is within
// tolerance, 1 when any regressed.
func check(w io.Writer, base, cand File, tolerance float64) int {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failures := 0
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cand.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "SKIP  %-28s not in candidate\n", name)
			continue
		}
		status := "ok   "
		var why []string
		if limit := b.NsPerOp * (1 + tolerance); c.NsPerOp > limit {
			why = append(why, fmt.Sprintf("ns/op %.4g > %.4g (baseline %.4g +%d%%)",
				c.NsPerOp, limit, b.NsPerOp, int(tolerance*100)))
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			why = append(why, fmt.Sprintf("allocs/op %g > baseline %g", c.AllocsPerOp, b.AllocsPerOp))
		}
		if len(why) > 0 {
			status = "FAIL "
			failures++
		}
		fmt.Fprintf(w, "%s %-28s ns/op %10.4g (base %10.4g)  allocs %4g (base %4g)",
			status, name, c.NsPerOp, b.NsPerOp, c.AllocsPerOp, b.AllocsPerOp)
		if c.EventsPerSec > 0 {
			fmt.Fprintf(w, "  %.3g events/sec", c.EventsPerSec)
		}
		fmt.Fprintln(w)
		for _, reason := range why {
			fmt.Fprintf(w, "      %s\n", reason)
		}
	}
	for name := range cand.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "NEW   %-28s not in baseline (not gated)\n", name)
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "gebench: %d benchmark(s) regressed beyond tolerance\n", failures)
		return 1
	}
	fmt.Fprintln(w, "gebench: all benchmarks within tolerance")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, does the work and returns the
// exit status (2 for usage and I/O errors).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	doCheck := fs.Bool("check", false, "gate a candidate JSON against a baseline JSON")
	baseline := fs.String("baseline", "BENCH_BASELINE.json", "baseline JSON (check mode)")
	candidate := fs.String("candidate", "", "candidate JSON (check mode)")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional ns/op growth (check mode)")
	note := fs.String("note", "", "free-form note embedded in the emitted JSON (parse mode)")
	mergePrev := fs.String("merge-previous", "",
		"carry the \"previous\" section of this JSON file into the output (parse mode)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gebench:", err)
		return 2
	}

	if *doCheck {
		if *candidate == "" {
			return fail(fmt.Errorf("-check needs -candidate"))
		}
		base, err := load(*baseline)
		if err != nil {
			return fail(err)
		}
		cand, err := load(*candidate)
		if err != nil {
			return fail(err)
		}
		return check(stdout, base, cand, *tolerance)
	}

	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	results, err := parse(sc)
	if err != nil {
		return fail(err)
	}
	out := File{Note: *note, Benchmarks: results}
	if *mergePrev != "" {
		prev, err := load(*mergePrev)
		if err != nil {
			return fail(err)
		}
		out.Previous = prev.Previous
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fail(err)
	}
	return 0
}
