package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test holds the output to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at minimal length, untraced and traced:
// no request may fail, and each mode must emit exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up a fleet per workload and replays its layers")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadNames))
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			w, err := newWorkload(context.Background(), wl.Name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{workload: wl.Name, seed: 1, seconds: 0.5, trace: trace, root: "..", clients: runtime.NumCPU()}
			res, err := benchmark(context.Background(), cfg, w, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			r := res.report
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			for name, unit := range want {
				got, ok := r.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, name, got, unit)
				}
			}
			for name := range r.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
		}
	}
}
