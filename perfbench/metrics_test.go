package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestMetricNameCheck(t *testing.T) {
	for _, name := range []string{"jobs_per_s", "qopt.ns_per_call", "a", "9lives", "x-y.z_1",
		strings.Repeat("a", 64)} {
		if !metricName.MatchString(name) {
			t.Errorf("name %q rejected", name)
		}
	}
	for _, name := range []string{"", "_lead", ".dot", "-dash", "has space", "slash/no", "ünï",
		strings.Repeat("a", 65)} {
		if metricName.MatchString(name) {
			t.Errorf("name %q accepted", name)
		}
	}
	if err := checkSpecs([]metricSpec{{"a", "ms"}, {"a", "ms"}}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := checkSpecs([]metricSpec{{"a", "m s"}}); err == nil {
		t.Error("unit with a space accepted")
	}
	if err := checkSpecs(endToEnd); err != nil {
		t.Error(err)
	}
	if err := checkSpecs(perLayer); err != nil {
		t.Error(err)
	}
}

func TestCollect(t *testing.T) {
	specs := []metricSpec{{"a", "ms"}, {"b", "s"}}
	if _, err := collect(specs, map[string]float64{"a": 1}, false); err == nil {
		t.Error("missing end-to-end metric accepted")
	}
	got, err := collect(specs, map[string]float64{"a": 1}, true)
	if err != nil || got["b"].Value != 0 || got["a"].Unit != "ms" {
		t.Errorf("per-layer fill = %v, %v", got, err)
	}
	if _, err := collect(specs, map[string]float64{"a": 1, "c": 2}, true); err == nil {
		t.Error("undeclared metric accepted")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// BENCHMARK.json, layers.json and the program must name the same workloads
// and metrics with the same units.
func TestDeclarationsAgree(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	same := func(kind string, decl []struct{ Name, Unit string }, specs []metricSpec) {
		if len(decl) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(decl), len(specs))
			return
		}
		for i, d := range decl {
			if d.Name != specs[i].name || d.Unit != specs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, d.Name, d.Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)

	raw, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers []struct {
		Layer   string   `json:"layer"`
		Metrics []string `json:"metrics"`
		Moves   []string `json:"moves"`
		BusyOn  []string `json:"busy_on"`
	}
	if err := json.Unmarshal(raw, &layers); err != nil {
		t.Fatal(err)
	}
	inMap := map[string]int{}
	for _, l := range layers {
		for _, m := range l.Metrics {
			inMap[m]++
		}
		for _, m := range l.Moves {
			if !hasSpec(endToEnd, m) {
				t.Errorf("layers.json: layer %s moves unknown metric %s", l.Layer, m)
			}
		}
		for _, w := range l.BusyOn {
			if _, ok := workloads[w]; !ok {
				t.Errorf("layers.json: layer %s is busy on unknown workload %s", l.Layer, w)
			}
		}
	}
	for _, s := range perLayer {
		if inMap[s.name] != 1 {
			t.Errorf("layers.json maps %s %d times, want once", s.name, inMap[s.name])
		}
		delete(inMap, s.name)
	}
	for m := range inMap {
		t.Errorf("layers.json maps undeclared metric %s", m)
	}
}

func hasSpec(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}
