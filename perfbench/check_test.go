package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"jvmgc/internal/labd"
)

func TestPaperCheck(t *testing.T) {
	c := &paperCheck{seed: 42}
	if c.check("not the evaluation") || c.failed != 1 {
		t.Error("seed 42: a report off the pinned digest passed")
	}
	c = &paperCheck{seed: 7}
	if !c.check("report") || !c.check("report") || c.check("report!") || c.failed != 1 {
		t.Errorf("seed 7: want the first report to pin the rest, failed=%d", c.failed)
	}
}

func TestVerifierCatchesWrongBytes(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	specs := []labd.JobSpec{
		{Kind: labd.KindSimulate, Collector: "G1", DurationSeconds: 30, Seed: 1},
		{Kind: labd.KindSimulate, Collector: "CMS", DurationSeconds: 30, Seed: 2},
	}
	good0, err := ref.bytes(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	good1, err := ref.bytes(specs[1])
	if err != nil {
		t.Fatal(err)
	}

	// Precomputed references compare in place.
	v := newVerifier(specs)
	if err := v.precompute(ref); err != nil {
		t.Fatal(err)
	}
	if !v.check(0, good0) || v.check(0, good1) {
		t.Error("precomputed: want the reference accepted and another spec's bytes refused")
	}

	// Hashed checks: the first body pins the spec, settle judges it.
	v = newVerifier(specs)
	if !v.check(0, good0) || !v.check(0, good0) || v.check(0, good1) {
		t.Error("hashed: want consistent bodies accepted and a different one refused")
	}
	if !v.check(1, good0) || !v.check(1, good0) {
		t.Error("hashed: a spec's first body passes until settle")
	}
	bad, err := v.settle(ref, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 2 {
		t.Errorf("settle found %d bad responses, want the 2 served for spec 1", bad)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json gates a subset of the workloads (README.md says
	// why svc-hit is left out); each it names must be one this program runs.
	for _, w := range b.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, program %s %s", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
