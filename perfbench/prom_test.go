package main

import (
	"math"
	"testing"
)

// Two scrapes of a daemon's /metrics page, trimmed: between them one
// more hit, one more miss and simulation, two more jobs in new latency
// buckets, and a counter that first appears in the second scrape.
const promBefore = `# HELP jvmgc_labd_cache_hits_memory_total Results served from memory.
# TYPE jvmgc_labd_cache_hits_memory_total counter
jvmgc_labd_cache_hits_memory_total 10
jvmgc_labd_cache_misses_total 4
jvmgc_labd_simulations_total 4
jvmgc_labd_go_gc_pause_p99_seconds 0.000262144
jvmgc_labd_job_latency_hist_seconds_bucket{le="0.001"} 12
jvmgc_labd_job_latency_hist_seconds_bucket{le="0.01"} 14
jvmgc_labd_job_latency_hist_seconds_bucket{le="+Inf"} 14
jvmgc_labd_job_latency_hist_seconds_sum 0.05
jvmgc_labd_job_latency_hist_seconds_count 14
jvmgc_labd_slo_latency_burn_rate{window="5m0s"} 0
`

const promAfter = `# HELP jvmgc_labd_cache_hits_memory_total Results served from memory.
jvmgc_labd_cache_hits_memory_total 11
jvmgc_labd_cache_misses_total 5
jvmgc_labd_simulations_total 5
jvmgc_labd_jobs_coalesced_total 2
jvmgc_labd_go_gc_pause_p99_seconds 0.000524288
jvmgc_labd_job_latency_hist_seconds_bucket{le="0.0005"} 1
jvmgc_labd_job_latency_hist_seconds_bucket{le="0.001"} 13
jvmgc_labd_job_latency_hist_seconds_bucket{le="0.01"} 15
jvmgc_labd_job_latency_hist_seconds_bucket{le="0.1"} 16
jvmgc_labd_job_latency_hist_seconds_bucket{le="+Inf"} 16
jvmgc_labd_job_latency_hist_seconds_sum 0.125
jvmgc_labd_job_latency_hist_seconds_count 16
jvmgc_labd_slo_latency_burn_rate{window="5m0s"} 0.5 1700000000000
`

func mustParse(t *testing.T, text string) promSnap {
	t.Helper()
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseProm(t *testing.T) {
	s := mustParse(t, promAfter)
	for series, want := range map[string]float64{
		"jvmgc_labd_cache_hits_memory_total":                    11,
		`jvmgc_labd_job_latency_hist_seconds_bucket{le="+Inf"}`: 16,
		`jvmgc_labd_slo_latency_burn_rate{window="5m0s"}`:       0.5,
	} {
		if got, ok := s[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if _, err := parseProm("jvmgc_labd_x\n"); err == nil {
		t.Error("sample without a value parsed")
	}
	if _, err := parseProm("jvmgc_labd_x abc\n"); err == nil {
		t.Error("non-numeric value parsed")
	}
}

func TestCounterDelta(t *testing.T) {
	b, a := mustParse(t, promBefore), mustParse(t, promAfter)
	for series, want := range map[string]float64{
		"jvmgc_labd_cache_hits_memory_total": 1,
		"jvmgc_labd_simulations_total":       1,
		"jvmgc_labd_jobs_coalesced_total":    2, // registered lazily: absent before reads 0
		"jvmgc_labd_never_registered_total":  0,
	} {
		if got := delta(b, a, series); got != want {
			t.Errorf("delta %s = %v, want %v", series, got, want)
		}
	}
}

func TestHistogramDelta(t *testing.T) {
	b, a := mustParse(t, promBefore), mustParse(t, promAfter)
	d := histogramDelta(b, a, "jvmgc_labd_job_latency_hist_seconds")
	if d.count != 2 || math.Abs(d.sum-0.075) > 1e-12 {
		t.Fatalf("count %v sum %v, want 2 and 0.075", d.count, d.sum)
	}
	// The first scrape printed no 0.0005 or 0.1 bucket: a bound missing
	// from a page holds the count of the bound below it (0 and 14).
	want := map[float64]float64{0.0005: 1, 0.001: 1, 0.01: 1, 0.1: 2, math.Inf(1): 2}
	for _, bk := range d.buckets {
		if bk.cum != want[bk.le] {
			t.Errorf("bucket le=%v cum %v, want %v", bk.le, bk.cum, want[bk.le])
		}
	}
	if q := d.quantile(0.5); q != 0.0005 {
		t.Errorf("p50 = %v, want 0.0005", q)
	}
	if q := d.quantile(0.99); q != 0.1 {
		t.Errorf("p99 = %v, want 0.1", q)
	}
	if m := d.mean(); math.Abs(m-0.0375) > 1e-12 {
		t.Errorf("mean = %v, want 0.0375", m)
	}

	// Two daemons' deltas merge bucket by bucket.
	two := d.add(d)
	if two.count != 4 || two.quantile(0.5) != 0.0005 || two.quantile(0.99) != 0.1 {
		t.Errorf("merged: count %v p50 %v p99 %v", two.count, two.quantile(0.5), two.quantile(0.99))
	}
	var none histDelta
	if none.quantile(0.5) != 0 || none.mean() != 0 {
		t.Error("an empty delta should read 0")
	}
}
