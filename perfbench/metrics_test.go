package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics and workloads the
// code reports in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", kind, len(declared), len(code))
			return
		}
		for i, d := range declared {
			if d.Name != code[i].name || d.Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, d.Name, d.Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, w.Name, workloads[i].name)
		}
	}
}
