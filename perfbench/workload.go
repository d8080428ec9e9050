package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"jvmgc"
	"jvmgc/internal/dacapo"
	"jvmgc/internal/labd"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlPaper = "paper-eval"
	wlHit   = "svc-hit"
	wlFleet = "fleet-mixed"
)

var workloads = []string{wlPaper, wlHit, wlFleet}

// Sizes of the service workloads' inputs.
const (
	hitSpecs      = 64   // svc-hit: specs primed during set-up
	fleetUniverse = 4096 // fleet-mixed: distinct specs, far above 3x256 cache entries
	fleetZipf     = 0.99 // fleet-mixed: popularity skew over the universe
	fleetWarmup   = 1500 // fleet-mixed: warm-up prefix replayed during set-up
)

// rng returns the random stream of one part of a workload's inputs.
// Hashing the workload into the stream keeps two workloads from sharing
// a sequence for the same seed.
func rng(workload, part string, seed uint64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload + "/" + part))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// Spec shapes are fixed by index, so every seed runs the same mix of
// collectors, durations, heap sizes and allocation rates in the same
// popularity positions; the seed draws the simulation seeds (and, through
// sequence, the request order). Otherwise the few hottest specs of a
// skewed workload, whose result sizes set much of its cost, would differ
// from seed to seed.
var (
	collectors = jvmgc.Collectors()
	hitHeaps   = []int64{2 << 30, 4 << 30, 8 << 30, 16 << 30}
	hitAllocs  = []float64{100e6, 200e6, 400e6, 800e6}
	hitDurs    = []float64{60, 120, 300}
	fleetHeaps = []int64{4 << 30, 8 << 30, 16 << 30}
	fleetAlloc = []float64{200e6, 400e6, 600e6}
	fleetDurs  = []float64{300, 600, 900}
)

// hitSpecSet returns svc-hit's primed specs: short simulations over all
// six collectors and a spread of heap sizes and allocation rates, so the
// cached result bodies range from a few KB to tens of KB.
func hitSpecSet(seed uint64) []labd.JobSpec {
	r := rng(wlHit, "specs", seed)
	out := make([]labd.JobSpec, hitSpecs)
	for i := range out {
		out[i] = labd.JobSpec{
			Kind:             labd.KindSimulate,
			Collector:        collectors[i%6],
			DurationSeconds:  hitDurs[i/6%3],
			HeapBytes:        hitHeaps[i/18%4],
			AllocBytesPerSec: hitAllocs[i%4],
			Seed:             r.Uint64() >> 1,
		}
	}
	return out
}

// fleetSpecSet returns fleet-mixed's universe: three quarters simulate
// specs with long simulated durations, the rest DaCapo benchmark runs.
// Index order is popularity rank: the Zipf sampler favours low indices,
// and every block of 72 ranks holds each kind, collector and duration.
func fleetSpecSet(seed uint64) []labd.JobSpec {
	r := rng(wlFleet, "specs", seed)
	out := make([]labd.JobSpec, fleetUniverse)
	for i := range out {
		k := i / 4
		if i%4 == 3 {
			out[i] = labd.JobSpec{
				Kind:      labd.KindBenchmark,
				Benchmark: benchmarks[k%len(benchmarks)],
				Collector: collectors[k%6],
				Seed:      r.Uint64() >> 1,
			}
			continue
		}
		out[i] = labd.JobSpec{
			Kind:             labd.KindSimulate,
			Collector:        collectors[k%6],
			DurationSeconds:  fleetDurs[k/6%3],
			HeapBytes:        fleetHeaps[k/18%3],
			AllocBytesPerSec: fleetAlloc[k/54%3],
			Seed:             r.Uint64() >> 1,
		}
	}
	return out
}

// benchmarks are the DaCapo benchmarks that run: the simulated suite,
// like the paper's, crashes eclipse, tradebeans and tradesoap on every
// test, and a workload's requests must all succeed.
var benchmarks = func() []string {
	var out []string
	for _, b := range dacapo.All() {
		if !b.Crashes {
			out = append(out, b.Name)
		}
	}
	return out
}()

// specSet returns the workload's distinct specs (nil for paper-eval,
// which submits no service requests).
func specSet(workload string, seed uint64) []labd.JobSpec {
	switch workload {
	case wlHit:
		return hitSpecSet(seed)
	case wlFleet:
		return fleetSpecSet(seed)
	}
	return nil
}

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting the
// cumulative weights (math/rand's Zipf needs s > 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf}
}

func (z zipf) sample(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// sequence returns the first n requests of the workload's request
// sequence as indices into specSet(workload, seed). It is a pure
// function of (workload, seed): the program under test receives only
// these generated requests.
func sequence(workload string, seed uint64, n int) ([]int32, error) {
	r := rng(workload, "sequence", seed)
	out := make([]int32, n)
	switch workload {
	case wlHit:
		for i := range out {
			out[i] = int32(r.IntN(hitSpecs))
		}
	case wlFleet:
		z := newZipf(fleetUniverse, fleetZipf)
		for i := range out {
			out[i] = int32(z.sample(r))
		}
	default:
		return nil, fmt.Errorf("workload %q sends no requests", workload)
	}
	return out, nil
}
