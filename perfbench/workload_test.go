package main

import (
	"reflect"
	"slices"
	"testing"

	"jvmgc/internal/dacapo"
	"jvmgc/internal/labd"
)

func mustSequence(t *testing.T, workload string, seed uint64, n int) []int32 {
	t.Helper()
	seq, err := sequence(workload, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestSequenceIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range []string{wlHit, wlFleet} {
		a := mustSequence(t, w, 7, 5000)
		if b := mustSequence(t, w, 7, 5000); !slices.Equal(a, b) {
			t.Errorf("%s: same seed gave different sequences", w)
		}
		if b := mustSequence(t, w, 8, 5000); slices.Equal(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w)
		}
		// A longer request is the same sequence, continued.
		if b := mustSequence(t, w, 7, 20000); !slices.Equal(a, b[:len(a)]) {
			t.Errorf("%s: sequence prefix depends on its length", w)
		}
		n := len(specSet(w, 7))
		for i, idx := range a {
			if idx < 0 || int(idx) >= n {
				t.Fatalf("%s: request %d names spec %d of %d", w, i, idx, n)
			}
		}
	}
	if _, err := sequence(wlPaper, 7, 10); err == nil {
		t.Error("paper-eval has no request sequence, want an error")
	}
}

func TestSpecSetsVaryOnlyInSimulationSeeds(t *testing.T) {
	for _, w := range []string{wlHit, wlFleet} {
		a, b := specSet(w, 1), specSet(w, 1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different specs", w)
		}
		c := specSet(w, 2)
		for i := range a {
			x, y := a[i], c[i]
			if x.Seed == y.Seed {
				t.Errorf("%s spec %d: seed did not change with the workload seed", w, i)
			}
			x.Seed, y.Seed = 0, 0
			if x != y {
				t.Errorf("%s spec %d: shape changed with the seed: %+v vs %+v", w, i, x, y)
			}
		}
	}
}

func TestSpecsAreDistinctAndValid(t *testing.T) {
	for _, w := range []string{wlHit, wlFleet} {
		keys := make(map[string]int)
		for i, s := range specSet(w, 3) {
			k, err := labd.SpecKey(s)
			if err != nil {
				t.Fatalf("%s spec %d: %v", w, i, err)
			}
			if j, dup := keys[k]; dup {
				t.Fatalf("%s: specs %d and %d share a content address", w, j, i)
			}
			keys[k] = i
		}
	}
}

func TestFleetMix(t *testing.T) {
	sims := 0
	u := fleetSpecSet(3)
	for _, s := range u {
		switch s.Kind {
		case labd.KindSimulate:
			sims++
		case labd.KindBenchmark:
			b, err := dacapo.ByName(s.Benchmark)
			if err != nil || b.Crashes {
				t.Fatalf("benchmark %q: %v, crashes=%v", s.Benchmark, err, b.Crashes)
			}
		default:
			t.Fatalf("unexpected kind %q", s.Kind)
		}
	}
	if sims*4 != len(u)*3 {
		t.Errorf("%d of %d specs simulate, want three quarters", sims, len(u))
	}
	// Zipf(0.99): the head is hot, the tail is still reached, and the
	// universe is far larger than the fleet's 3x256 cache entries.
	seq := mustSequence(t, wlFleet, 3, 200000)
	counts := make([]int, fleetUniverse)
	for _, i := range seq {
		counts[i]++
	}
	if counts[0] < 10*counts[99] {
		t.Errorf("rank 0 drew %d requests, rank 99 %d: want a skew near 100x", counts[0], counts[99])
	}
	distinct := 0
	for _, c := range counts {
		if c > 0 {
			distinct++
		}
	}
	if distinct < 3*256*3 {
		t.Errorf("200000 requests reached %d distinct specs, want well over 3x256", distinct)
	}
}
