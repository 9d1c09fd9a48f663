package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks the
// result line: correct, something attempted, and exactly the declared
// metrics with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			name, trace := name, trace
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				if err := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace}, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !strings.HasPrefix(lines[0], "stamp ") {
					t.Errorf("first line is not the host stamp: %s", lines[0])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v, want correct with no failures\n%s", res, out.String())
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
						t.Errorf("metric %s: %+v, want unit %s", s.name, m, s.unit)
					}
				}
			})
		}
	}
}
