package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's metric lists to
// the ones the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// TestCountersDeterministic runs every workload briefly three times: the
// deterministic work counters must repeat exactly at one seed and change
// with the seed.
func TestCountersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	counters := func(name string, seed int64) map[string]int64 {
		t.Helper()
		cfg := &config{workload: name, seed: seed, seconds: time.Second, workers: 2, scratch: t.TempDir()}
		rep, err := workloads[name](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Fatalf("%s: %d failed checks: %v", name, rep.failed, rep.failures)
		}
		return rep.counters
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b, c := counters(name, 1), counters(name, 1), counters(name, 2)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("counters differ between runs at seed 1:\n%v\n%v", a, b)
			}
			if a["mapper.evaluations"] == c["mapper.evaluations"] {
				t.Errorf("counters did not change with the seed: %v vs %v", a, c)
			}
			if a["mapper.searches"] == 0 {
				t.Errorf("no searches counted: %v", a)
			}
		})
	}
}
