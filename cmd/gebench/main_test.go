package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestStripProcs(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"BenchmarkKernelPush-2", "BenchmarkKernelPush"},
		{"BenchmarkKernelPush-16", "BenchmarkKernelPush"},
		{"BenchmarkKernelPush", "BenchmarkKernelPush"},
		{"BenchmarkFleet/k=4-2", "BenchmarkFleet/k=4"},
		{"BenchmarkFleet/mode-x", "BenchmarkFleet/mode-x"},
		{"-2", "-2"},
	} {
		if got := stripProcs(tc.in); got != tc.want {
			t.Errorf("stripProcs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseFoldsBestObservation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		want  map[string]Result
	}{
		{
			name:  "single line with every unit",
			input: "BenchmarkQuantumCritical-2   10   2740000 ns/op   812345 events/sec   4096 B/op   12 allocs/op\n",
			want:  map[string]Result{"QuantumCritical": {NsPerOp: 2740000, AllocsPerOp: 12, BytesPerOp: 4096, EventsPerSec: 812345}},
		},
		{
			name: "counts fold to the best of each column independently",
			input: "BenchmarkA-2 100 300 ns/op 2000 events/sec 64 B/op 3 allocs/op\n" +
				"BenchmarkA-2 100 200 ns/op 1000 events/sec 96 B/op 2 allocs/op\n" +
				"BenchmarkA-2 100 250 ns/op 3000 events/sec 32 B/op 4 allocs/op\n",
			want: map[string]Result{"A": {NsPerOp: 200, AllocsPerOp: 2, BytesPerOp: 32, EventsPerSec: 3000}},
		},
		{
			name: "headers, PASS lines and lines without ns/op are ignored",
			input: "goos: linux\ngoarch: amd64\npkg: goodenough/internal/qopt\n" +
				"BenchmarkB-4 1 7 allocs/op\n" +
				"BenchmarkC-4   5   1.5e+06 ns/op\nPASS\nok  goodenough 1.2s\n",
			want: map[string]Result{"C": {NsPerOp: 1.5e6}},
		},
		{
			name:  "sub-benchmarks keep their path, lose only the procs suffix",
			input: "BenchmarkFleet/k=4-2 3 900 ns/op\nBenchmarkFleet/k=1-2 3 1200 ns/op\n",
			want:  map[string]Result{"Fleet/k=4": {NsPerOp: 900}, "Fleet/k=1": {NsPerOp: 1200}},
		},
		{
			name:  "unparsable values are skipped, not zeroed",
			input: "BenchmarkD-2 10 abc ns/op 40 ns/op 5 B/op\n",
			want:  map[string]Result{"D": {NsPerOp: 40, BytesPerOp: 5}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse(bufio.NewScanner(strings.NewReader(tc.input)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parse = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestParseRejectsInputWithoutBenchmarks(t *testing.T) {
	for _, input := range []string{"", "PASS\nok  goodenough 0.1s\n", "BenchmarkX-2 10 5 allocs/op\n"} {
		if _, err := parse(bufio.NewScanner(strings.NewReader(input))); err == nil {
			t.Errorf("parse(%q): want an error", input)
		}
	}
}

func TestCheck(t *testing.T) {
	base := File{Benchmarks: map[string]Result{
		"Kernel": {NsPerOp: 100, AllocsPerOp: 0},
		"Fleet":  {NsPerOp: 1000, AllocsPerOp: 10},
	}}
	for _, tc := range []struct {
		name     string
		cand     map[string]Result
		status   int
		contains []string
	}{
		{
			name:     "equal",
			cand:     map[string]Result{"Kernel": {NsPerOp: 100}, "Fleet": {NsPerOp: 1000, AllocsPerOp: 10}},
			status:   0,
			contains: []string{"ok    Kernel", "all benchmarks within tolerance"},
		},
		{
			name:   "faster and fewer allocs",
			cand:   map[string]Result{"Kernel": {NsPerOp: 50}, "Fleet": {NsPerOp: 900, AllocsPerOp: 8}},
			status: 0,
		},
		{
			name:   "ns/op just inside the tolerance passes",
			cand:   map[string]Result{"Kernel": {NsPerOp: 114.9}, "Fleet": {NsPerOp: 1000, AllocsPerOp: 10}},
			status: 0,
		},
		{
			name:     "ns/op past the tolerance fails",
			cand:     map[string]Result{"Kernel": {NsPerOp: 116}, "Fleet": {NsPerOp: 1000, AllocsPerOp: 10}},
			status:   1,
			contains: []string{"FAIL  Kernel", "ns/op 116 > 115 (baseline 100 +15%)", "1 benchmark(s) regressed"},
		},
		{
			name:     "one more alloc fails however fast",
			cand:     map[string]Result{"Kernel": {NsPerOp: 10, AllocsPerOp: 1}, "Fleet": {NsPerOp: 1000, AllocsPerOp: 10}},
			status:   1,
			contains: []string{"FAIL  Kernel", "allocs/op 1 > baseline 0"},
		},
		{
			name:     "both columns regress in both benchmarks",
			cand:     map[string]Result{"Kernel": {NsPerOp: 200, AllocsPerOp: 1}, "Fleet": {NsPerOp: 2000, AllocsPerOp: 11}},
			status:   1,
			contains: []string{"2 benchmark(s) regressed"},
		},
		{
			name:     "missing and new benchmarks are reported, never gated",
			cand:     map[string]Result{"Kernel": {NsPerOp: 100}, "AllocateEDFDeep": {NsPerOp: 1e9, AllocsPerOp: 99}},
			status:   0,
			contains: []string{"SKIP  Fleet", "NEW   AllocateEDFDeep"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := check(&out, base, File{Benchmarks: tc.cand}, 0.15); got != tc.status {
				t.Fatalf("check = %d, want %d\n%s", got, tc.status, out.String())
			}
			for _, s := range tc.contains {
				if !strings.Contains(out.String(), s) {
					t.Errorf("output lacks %q:\n%s", s, out.String())
				}
			}
		})
	}
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoad(t *testing.T) {
	for _, tc := range []struct {
		name    string
		content string
		want    map[string]Result
		wantErr bool
	}{
		{
			name:    "wrapped",
			content: `{"note":"n","benchmarks":{"A":{"ns_per_op":5,"allocs_per_op":1}}}`,
			want:    map[string]Result{"A": {NsPerOp: 5, AllocsPerOp: 1}},
		},
		{
			name:    "bare map",
			content: `{"A":{"ns_per_op":7}}`,
			want:    map[string]Result{"A": {NsPerOp: 7}},
		},
		{name: "not JSON", content: `ns/op`, wantErr: true},
		{name: "neither shape", content: `{"benchmarks":3}`, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := load(writeFile(t, "b.json", tc.content))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("load: want an error, got %+v", f)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(f.Benchmarks, tc.want) {
				t.Fatalf("load = %+v, want %+v", f.Benchmarks, tc.want)
			}
		})
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("load of a missing file: want an error")
	}
}

func TestRunParseMergesPrevious(t *testing.T) {
	prev := writeFile(t, "base.json",
		`{"benchmarks":{"A":{"ns_per_op":1}},"previous":{"A":{"ns_per_op":9,"allocs_per_op":4}}}`)
	var out, errOut bytes.Buffer
	in := strings.NewReader("BenchmarkA-2 10 3 ns/op 0 B/op 0 allocs/op\n")
	if code := run([]string{"-note", "best of 1", "-merge-previous", prev}, in, &out, &errOut); code != 0 {
		t.Fatalf("run = %d: %s", code, errOut.String())
	}
	var got File
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := File{
		Note:       "best of 1",
		Benchmarks: map[string]Result{"A": {NsPerOp: 3}},
		Previous:   map[string]Result{"A": {NsPerOp: 9, AllocsPerOp: 4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("emitted %+v, want %+v", got, want)
	}
}

func TestRunExitStatus(t *testing.T) {
	base := writeFile(t, "base.json", `{"benchmarks":{"A":{"ns_per_op":100}}}`)
	fast := writeFile(t, "fast.json", `{"benchmarks":{"A":{"ns_per_op":90}}}`)
	slow := writeFile(t, "slow.json", `{"benchmarks":{"A":{"ns_per_op":200}}}`)
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
		want  int
	}{
		{"check passes", []string{"-check", "-baseline", base, "-candidate", fast}, "", 0},
		{"check fails", []string{"-check", "-baseline", base, "-candidate", slow}, "", 1},
		{"looser tolerance passes", []string{"-check", "-tolerance", "1.5", "-baseline", base, "-candidate", slow}, "", 0},
		{"check without candidate", []string{"-check", "-baseline", base}, "", 2},
		{"missing baseline", []string{"-check", "-baseline", base + ".gone", "-candidate", fast}, "", 2},
		{"parse without benchmarks", nil, "PASS\n", 2},
		{"merge-previous from a missing file", []string{"-merge-previous", base + ".gone"}, "BenchmarkA 1 2 ns/op\n", 2},
		{"unknown flag", []string{"-bogus"}, "", 2},
		{"help", []string{"-h"}, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if got := run(tc.args, strings.NewReader(tc.stdin), &out, &errOut); got != tc.want {
				t.Fatalf("run = %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, out.String(), errOut.String())
			}
		})
	}
}
