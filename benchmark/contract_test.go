package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestContract runs every workload in smoke form in both modes and checks
// that each run is correct — in the traced run that includes the replay
// reproducing the engine's final digest on every program — and that it
// emits exactly the metrics, with the units, BENCHMARK.json declares.
func TestContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(catalog) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(catalog))
	}
	for i, w := range m.Workloads {
		if w.Name != catalog[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, catalog[i].name)
		}
	}

	for _, w := range catalog {
		for _, mode := range []struct {
			name  string
			trace bool
			want  []manifestMetric
		}{{"end_to_end", false, m.EndToEnd}, {"per_layer", true, m.PerLayer}} {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				out, err := run(w, options{workload: w.name, seed: 1, seconds: 1, trace: mode.trace, smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				rep := out.report()
				if !rep.Correct || rep.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failures=%v", rep.Correct, rep.Attempted, out.failures)
				}
				if len(rep.Metrics) != len(mode.want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(mode.want))
				}
				for _, mm := range mode.want {
					got, ok := rep.Metrics[mm.Name]
					switch {
					case !ok:
						t.Errorf("%s: declared but not emitted", mm.Name)
					case got.Unit != mm.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", mm.Name, got.Unit, mm.Unit)
					}
				}
				for name := range rep.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q does not match %s", name, metricName)
					}
				}
			})
		}
	}
}
