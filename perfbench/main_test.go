package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSelf runs every workload at a tiny size, untraced and traced, and
// checks that every answer passes its checks, the traced run reconciles,
// and every metric BENCHMARK.json names is printed with its unit.
func TestSelf(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", sw.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := run(w, options{
				sz:      size{mesh: 10, soc: 1024},
				seed:    7,
				window:  200 * time.Millisecond,
				traced:  traced,
				setups:  2,
				verbose: &out,
			})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d\n%s",
					w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s traced=%t: metric %s not printed", w.name, traced, m.Name)
				}
			}
			if !traced && !strings.Contains(out.String(), "error_rate") {
				t.Errorf("%s: error_rate not printed", w.name)
			}
		}
	}
}
