package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json at the repository root
// in step with what the benchmark measures: the same workloads, and the
// same metric names and units as the end-to-end and traced runs report.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].Name)
		}
	}
	compare := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != (entry{want[i].name, want[i].unit, want[i].better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, e2eMetricSpecs)
	compare("per_layer", doc.PerLayer, layerMetricSpecs())
}
