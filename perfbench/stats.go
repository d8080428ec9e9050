package main

import "jvmgc/internal/stats"

// pct returns the p-th percentile (0..100) of xs, interpolated between
// nearest ranks as internal/stats computes it, or 0 for no samples.
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0 // no samples: the metric reads 0
	}
	return v
}

func median(xs []float64) float64 { return pct(xs, 50) }
