package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSnap is one scrape of a Prometheus text page: series (name plus
// label set, exactly as printed) to value.
type promSnap map[string]float64

// parseProm reads the classic Prometheus text format. Comment lines are
// skipped; a sample line is `series value` with an optional timestamp.
func parseProm(text string) (promSnap, error) {
	out := make(promSnap)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Labels never hold spaces on the daemon's page, so the first
		// space after the closing brace (or the name) ends the series.
		start := 0
		if i := strings.IndexByte(line, '}'); i >= 0 {
			start = i
		}
		sp := strings.IndexByte(line[start:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		series := line[:start+sp]
		f := strings.Fields(line[start+sp:])
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %s: %w", series, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// delta returns after[series] - before[series]; an absent series reads 0
// (the daemon registers some counters lazily, on first increment).
func delta(before, after promSnap, series string) float64 {
	return after[series] - before[series]
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le  float64
	cum float64
}

// buckets returns the cumulative buckets of histogram name, sorted by
// upper bound. Only non-empty buckets need be printed: a bound missing
// from the page holds the count of the nearest listed bound below it.
func (s promSnap) buckets(name string) []bucket {
	prefix := name + `_bucket{le="`
	var out []bucket
	for series, v := range s {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		out = append(out, bucket{le, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// cumAt returns the cumulative count at bound le.
func cumAt(bs []bucket, le float64) float64 {
	c := 0.0
	for _, b := range bs {
		if b.le > le {
			break
		}
		c = b.cum
	}
	return c
}

// histDelta is the part of a histogram observed between two scrapes.
type histDelta struct {
	buckets []bucket // cumulative, by upper bound
	count   float64
	sum     float64
}

// histogramDelta subtracts scrape before from scrape after for the
// histogram name. Deltas of several daemons merge with add.
func histogramDelta(before, after promSnap, name string) histDelta {
	var d histDelta
	prev := before.buckets(name)
	for _, b := range after.buckets(name) {
		d.buckets = append(d.buckets, bucket{b.le, b.cum - cumAt(prev, b.le)})
	}
	d.count = delta(before, after, name+"_count")
	d.sum = delta(before, after, name+"_sum")
	return d
}

// add merges another daemon's delta into d.
func (d histDelta) add(o histDelta) histDelta {
	bounds := make(map[float64]bool)
	for _, b := range d.buckets {
		bounds[b.le] = true
	}
	for _, b := range o.buckets {
		bounds[b.le] = true
	}
	var out histDelta
	for le := range bounds {
		out.buckets = append(out.buckets, bucket{le, cumAt(d.buckets, le) + cumAt(o.buckets, le)})
	}
	sort.Slice(out.buckets, func(i, j int) bool { return out.buckets[i].le < out.buckets[j].le })
	out.count = d.count + o.count
	out.sum = d.sum + o.sum
	return out
}

// quantile returns the upper bound of the bucket holding quantile q, or
// 0 when nothing was observed. The +Inf bucket reports the largest
// finite bound.
func (d histDelta) quantile(q float64) float64 {
	if len(d.buckets) == 0 {
		return 0
	}
	total := d.buckets[len(d.buckets)-1].cum
	if total <= 0 {
		return 0
	}
	finite := 0.0
	for _, b := range d.buckets {
		if !math.IsInf(b.le, 1) {
			finite = b.le
		}
		if b.cum >= q*total {
			return finite
		}
	}
	return finite
}

// mean returns sum/count, or 0 when nothing was observed.
func (d histDelta) mean() float64 {
	if d.count <= 0 {
		return 0
	}
	return d.sum / d.count
}
