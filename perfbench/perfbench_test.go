package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// self-test checks the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// short runs one workload briefly without the modelled guard.
func short(t *testing.T, name string, trace bool, k checker) report {
	t.Helper()
	rep, err := run(config{workload: name, seed: 7, seconds: 0.6, trace: trace, k: k, skipGuard: true}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// TestEmitsEveryMetric checks that a short run of each workload is
// correct and emits exactly the metrics BENCHMARK.json names, each
// with its unit: the end-to-end ones untraced, the per-layer ones
// traced.
func TestEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep := short(t, wl.Name, trace, checker{})
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedExpectationFails falsifies every expectation inside the
// benchmark's own checker (the written buffers, the host vectorAdd
// sum, the recomputed serving digests) and requires each workload's
// run to fail, so that the checks cannot pass by construction.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, name := range []string{"call-mix", "bulk-copy", "serve-decode"} {
		rep := short(t, name, false, checker{corrupt: true})
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s with corrupted expectations: correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
	}
}

// TestModelledGuard checks that the modelled clock still gives the
// recorded figures, and that a recorded value off in its last digit
// fails the guard.
func TestModelledGuard(t *testing.T) {
	if _, err := guardModelled(modelledJSON); err != nil {
		t.Fatal(err)
	}
	off := strings.Replace(string(modelledJSON), `"fig7_htod_MiBps": 855.9239526546736`, `"fig7_htod_MiBps": 855.9239526546737`, 1)
	if off == string(modelledJSON) {
		t.Fatal("test could not alter the recorded value")
	}
	if _, err := guardModelled([]byte(off)); err == nil {
		t.Fatal("guard accepted an altered recorded value")
	}
}
