package stats

import (
	"math"
	"sort"
)

// Interval is a half-open time interval [Start, End) in seconds, used to
// represent GC pauses when correlating them with request latencies.
type Interval struct {
	Start, End float64
}

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// LatencySample is one completed client operation: the instant it
// completed (seconds since experiment start) and its latency in
// milliseconds.
type LatencySample struct {
	Completed float64 // seconds
	LatencyMS float64
}

// interval returns the operation's service interval in seconds.
func (s LatencySample) interval() Interval {
	return Interval{Start: s.Completed - s.LatencyMS/1e3, End: s.Completed}
}

// BandRow is one row pair of the paper's Tables 5–7: the percentage of
// requests in a latency band, and the percentage of GC pauses that
// coincide with at least one request in that band.
type BandRow struct {
	Label string
	Reqs  float64 // % of requests in the band
	GCs   float64 // % of GCs with an overlapping request in the band
}

// BandReport is the paper's Tables 5–7 statistic block for one operation
// type under one collector.
type BandReport struct {
	N      int64
	AvgMS  float64
	MaxMS  float64
	MinMS  float64
	Normal BandRow   // 0.5x–1.5x AVG
	Above  []BandRow // >2x, >4x, >8x, ... AVG
}

// AnalyzeBands computes the band statistics of Tables 5–7.
//
// Bands follow the paper's §4.2 construction: the "normal" band holds
// latencies within 0.5×–1.5× of the average; the exceedance bands hold
// latencies above 2ⁿ× the average for n = 1, 2, 3, …, extended until the
// request percentage falls below minReqPct (the paper stops "until the
// percentage of points became too close to 0").
//
// The %GCs column counts, for each band, the fraction of GC pauses that
// overlap at least one request whose latency lies in that band. For the
// normal band it instead counts pauses whose overlapping requests ALL lie
// within it — a GC invisible in the latency signal — which is how the
// paper's tables arrive at 0.0% there while every exceedance band shows
// ~100%.
//
// Nothing is sorted but the pauses, and the samples are read twice:
//
//   - A Welford pass yields N, AVG, MIN and MAX. Every band edge is a
//     multiple of AVG, so the edges are known before the second pass,
//     which counts each sample against them with the same float
//     comparisons a sorted search would make: ≥ 0.5×AVG, > 1.5×AVG,
//     and how many of the ascending 2ⁿ×AVG edges it exceeds.
//   - The same pass correlates the sample with the pauses. Pauses are
//     sorted by start and carry a running maximum of their ends; a
//     binary search finds the first pause starting at or after the
//     sample's completion, and the walk back from there stops once that
//     running maximum no longer reaches past the sample's start — no
//     earlier pause can overlap it. Every pause in between is tested
//     with Interval.Overlaps, so samples may arrive in any order and
//     pauses may overlap one another (a cluster's merged node pauses).
//
// Latencies are durations: a negative one is outside the contract.
func AnalyzeBands(samples []LatencySample, pauses []Interval, minReqPct float64) BandReport {
	var rep BandReport
	if len(samples) == 0 {
		return rep
	}
	var w Welford
	for _, s := range samples {
		w.Add(s.LatencyMS)
	}
	rep.N = w.N()
	rep.AvgMS = w.Mean()
	rep.MinMS = w.Min()
	rep.MaxMS = w.Max()
	avg := rep.AvgMS

	// The exceedance edges 2ⁿ×AVG as the band table computes them, up to
	// the first one no latency exceeds (or the multiplier overflows).
	var edges []float64
	for mult := 2.0; !math.IsInf(mult, 1); mult *= 2 {
		edge := mult * avg
		edges = append(edges, edge)
		if !(edge < rep.MaxMS) {
			break
		}
	}

	ps := append([]Interval(nil), pauses...)
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].Start < ps[b].Start })
	reach := make([]float64, len(ps)) // reach[j]: latest end among ps[:j+1]
	end := math.Inf(-1)
	for j, p := range ps {
		end = max(end, p.End)
		reach[j] = end
	}
	worst := make([]float64, len(ps))
	hasReq := make([]bool, len(ps))

	bandLo, bandHi := 0.5*avg, 1.5*avg
	atLeastLo, aboveHi := 0, 0
	// exceed[k] counts the samples above exactly the first k edges.
	exceed := make([]int, len(edges)+1)
	for _, s := range samples {
		lat := s.LatencyMS
		if lat >= bandLo {
			atLeastLo++
		}
		if lat > bandHi {
			aboveHi++
		}
		k := 0
		for k < len(edges) && lat > edges[k] {
			k++
		}
		exceed[k]++

		iv := s.interval()
		lo, hi := 0, len(ps)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if ps[m].Start < iv.End {
				lo = m + 1
			} else {
				hi = m
			}
		}
		for j := lo - 1; j >= 0 && reach[j] > iv.Start; j-- {
			if iv.Overlaps(ps[j]) {
				hasReq[j] = true
				if lat > worst[j] {
					worst[j] = lat
				}
			}
		}
	}
	// Suffix sums turn exceed[k+1] into the count above edge k.
	for k := len(edges) - 1; k >= 0; k-- {
		exceed[k] += exceed[k+1]
	}
	countAbove := func(k int, _ float64) int {
		if k+1 < len(exceed) {
			return exceed[k+1]
		}
		return 0
	}
	fillBands(&rep, atLeastLo-aboveHi, countAbove, worst, hasReq, minReqPct)
	return rep
}

// fillBands completes the band table of a report whose N and AVG are
// set: the normal row from its request count, and the exceedance rows
// >2x, >4x, … AVG from countAbove(k, thresh), the number of latencies
// above the k-th edge thresh = 2ᵏ⁺¹×AVG. worst and hasReq describe each
// pause: the highest latency of a request overlapping it, and whether
// any request does.
func fillBands(rep *BandReport, inNormal int, countAbove func(k int, thresh float64) int,
	worst []float64, hasReq []bool, minReqPct float64) {
	avg := rep.AvgMS
	n := float64(rep.N)
	gcTotal := float64(len(worst))

	// Normal band: 0.5x–1.5x.
	bandHi := 1.5 * avg
	quiet := 0
	for pi := range worst {
		if hasReq[pi] && worst[pi] <= bandHi {
			quiet++
		}
	}
	rep.Normal = BandRow{Label: "0.5x-1.5x AVG", Reqs: 100 * float64(inNormal) / n}
	if gcTotal > 0 {
		rep.Normal.GCs = 100 * float64(quiet) / gcTotal
	}

	// Exceedance bands: >2x, >4x, >8x, ...
	for k, mult := 0, 2.0; ; k, mult = k+1, mult*2 {
		thresh := mult * avg
		count := countAbove(k, thresh)
		pct := 100 * float64(count) / n
		if pct < minReqPct && len(rep.Above) > 0 {
			break
		}
		row := BandRow{Label: bandLabel(mult), Reqs: pct}
		if gcTotal > 0 {
			hit := 0
			for _, wv := range worst {
				if wv > thresh {
					hit++
				}
			}
			row.GCs = 100 * float64(hit) / gcTotal
		}
		rep.Above = append(rep.Above, row)
		if count == 0 {
			break
		}
	}
}

func bandLabel(mult float64) string {
	switch mult {
	case 2:
		return ">2x AVG"
	case 4:
		return ">4x AVG"
	case 8:
		return ">8x AVG"
	case 16:
		return ">16x AVG"
	case 32:
		return ">32x AVG"
	case 64:
		return ">64x AVG"
	case 128:
		return ">128x AVG"
	case 256:
		return ">256x AVG"
	default:
		return ">>AVG"
	}
}
