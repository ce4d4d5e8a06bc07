package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestEveryMetricPrinted runs every workload briefly, untraced and traced,
// and checks that the last line names exactly the metrics BENCHMARK.json
// lists, each with its unit, and that every verdict matched.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "0.5", "-trace", trace}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestWrongReferenceCounted injects a wrong reference verdict set and
// checks that the correctness gate counts the session as failed.
func TestWrongReferenceCounted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(options{workload: w.name, seed: 3, seconds: 0.2, corruptReference: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed < 1 {
				t.Fatalf("wrong reference not counted: %+v", res)
			}
		})
	}
}
