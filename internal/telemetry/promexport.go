package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"jvmgc/internal/hdrhist"
	"jvmgc/internal/stats"
)

// PromSnapshot accumulates metric families and renders them in Prometheus
// text exposition format. It is the reusable core of the Recorder's
// WritePrometheus export: subsystems that are not simulations (the labd
// job daemon, for instance) build a snapshot from their own gauges and
// summaries, fold in a Recorder's counters, and serve the result from a
// /metrics endpoint.
//
// Families are emitted in sorted name order, so a snapshot built from the
// same data renders byte-identically. All metric names share the jvmgc_
// prefix.
type PromSnapshot struct {
	// OpenMetrics switches Write to OpenMetrics rendering: histogram
	// bucket lines carry their exemplars (trace correlation handles)
	// and the body terminates with the mandatory "# EOF" marker.
	// Classic Prometheus text format (the default) omits both —
	// exemplars are only legal in OpenMetrics.
	OpenMetrics bool

	fams []promFamily
}

// Label is one name/value label pair on a metric sample.
type Label struct {
	Name, Value string
}

// LabeledValue is one sample of a labeled metric family.
type LabeledValue struct {
	Labels []Label
	Value  float64
}

// escapeLabel maps a label value onto the Prometheus text-format
// escaping rules: backslash, double quote and newline are escaped; all
// other bytes pass through verbatim.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// renderLabels renders a {name="value",...} block with escaped values
// and sanitized names. Empty input renders to the empty string.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeMetric(l.Name))
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter appends a single-sample counter family. The name is sanitized
// onto the Prometheus charset and suffixed with _total.
func (s *PromSnapshot) Counter(name, help string, value int64) {
	n := sanitizeMetric(name) + "_total"
	s.fams = append(s.fams, promFamily{
		name: n,
		typ:  "counter",
		help: help,
		lines: []string{
			fmt.Sprintf("%s%s %d", promPrefix, n, value),
		},
	})
}

// Gauge appends a single-sample gauge family.
func (s *PromSnapshot) Gauge(name, help string, value float64) {
	n := sanitizeMetric(name)
	s.fams = append(s.fams, promFamily{
		name: n,
		typ:  "gauge",
		help: help,
		lines: []string{
			fmt.Sprintf("%s%s %g", promPrefix, n, value),
		},
	})
}

// LabeledGauge appends a gauge family with one sample per labeled row.
// Label values are escaped per the text-format rules (see escapeLabel),
// so callers may pass arbitrary strings. Empty input appends nothing.
func (s *PromSnapshot) LabeledGauge(name, help string, rows []LabeledValue) {
	if len(rows) == 0 {
		return
	}
	n := sanitizeMetric(name)
	f := promFamily{name: n, typ: "gauge", help: help}
	for _, r := range rows {
		f.lines = append(f.lines, fmt.Sprintf("%s%s%s %g",
			promPrefix, n, renderLabels(r.Labels), r.Value))
	}
	s.fams = append(s.fams, f)
}

// Summary appends a summary family with p50/p95/p99 quantiles plus _sum
// and _count, computed over the observations. Empty input appends
// nothing.
func (s *PromSnapshot) Summary(name, help string, observations []float64) {
	if f, ok := summaryFamily(name, help, observations); ok {
		s.fams = append(s.fams, f)
	}
}

// SummaryHist is Summary over a streaming histogram, for observations
// too many to keep: _sum and _count are exact, the quantiles are read
// from the histogram's buckets (within its relative error bound). A nil
// or empty histogram appends nothing.
func (s *PromSnapshot) SummaryHist(name, help string, h *hdrhist.Hist) {
	if h == nil || h.Count() == 0 {
		return
	}
	vs := make([]float64, len(summaryQuantiles))
	for i, q := range summaryQuantiles {
		vs[i] = h.Quantile(q)
	}
	s.fams = append(s.fams, summaryRows(name, help, vs, h.Sum(), h.Count()))
}

// Histogram appends a histogram family rendered from a streaming
// log-bucketed histogram: cumulative _bucket lines per non-empty bucket
// (upper bound = bucket high edge) plus the +Inf bucket, _sum and
// _count. A nil or empty histogram appends nothing.
func (s *PromSnapshot) Histogram(name, help string, h *hdrhist.Hist) {
	s.HistogramExemplars(name, help, h, nil)
}

// HistogramExemplars is Histogram with per-bucket exemplars: when the
// snapshot renders in OpenMetrics mode, each bucket line whose bucket
// retains an exemplar gains a "# {trace_id=...} value ts" suffix, so an
// operator can jump from a latency bucket straight to the trace that
// landed in it. In classic text format the exemplars are withheld (the
// format does not admit them). ex may be nil.
func (s *PromSnapshot) HistogramExemplars(name, help string, h *hdrhist.Hist, ex *hdrhist.Exemplars) {
	if h == nil || h.Count() == 0 {
		return
	}
	n := sanitizeMetric(name)
	f := promFamily{name: n, typ: "histogram", help: help}
	cum := uint64(0)
	h.ForEachBucket(func(b hdrhist.Bucket) {
		cum += b.Count
		f.lines = append(f.lines, fmt.Sprintf("%s%s_bucket{le=\"%g\"} %d",
			promPrefix, n, b.High, cum))
		suffix := ""
		if e, ok := ex.For(b.Index); ok {
			suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %g %g",
				escapeLabel(e.Label), e.Value, e.TS)
		}
		f.ex = append(f.ex, suffix)
	})
	f.lines = append(f.lines,
		fmt.Sprintf("%s%s_bucket{le=\"+Inf\"} %d", promPrefix, n, h.Count()),
		fmt.Sprintf("%s%s_sum %g", promPrefix, n, h.Sum()),
		fmt.Sprintf("%s%s_count %d", promPrefix, n, h.Count()))
	f.ex = append(f.ex, "", "", "")
	s.fams = append(s.fams, f)
}

// AddRecorderCounters appends one counter family per Recorder counter,
// exactly as WritePrometheus exports them.
func (s *PromSnapshot) AddRecorderCounters(r *Recorder) {
	for _, c := range r.Counters() {
		s.Counter(c.Name, "Count of "+c.Name+" events in the recording.", c.Value)
	}
}

// family appends a pre-rendered family (internal emission sites with
// labeled samples).
func (s *PromSnapshot) family(f promFamily) {
	s.fams = append(s.fams, f)
}

// Write renders the snapshot, families in sorted name order. In
// OpenMetrics mode bucket exemplars are appended to their sample lines
// and the body ends with the mandatory "# EOF" terminator.
func (s *PromSnapshot) Write(w io.Writer) error {
	sort.SliceStable(s.fams, func(i, j int) bool { return s.fams[i].name < s.fams[j].name })
	for _, f := range s.fams {
		if _, err := fmt.Fprintf(w, "# HELP %s%s %s\n# TYPE %s%s %s\n",
			promPrefix, f.name, f.help, promPrefix, f.name, f.typ); err != nil {
			return err
		}
		for i, line := range f.lines {
			if s.OpenMetrics && i < len(f.ex) {
				line += f.ex[i]
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	if s.OpenMetrics {
		if _, err := fmt.Fprintln(w, "# EOF"); err != nil {
			return err
		}
	}
	return nil
}

// summaryQuantiles are the percentiles every summary family reports.
var summaryQuantiles = []float64{50, 95, 99}

func summaryFamily(name, help string, xs []float64) (promFamily, bool) {
	if len(xs) == 0 {
		return promFamily{}, false
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	vs, err := stats.Percentiles(xs, summaryQuantiles...)
	if err != nil {
		return promFamily{}, false
	}
	return summaryRows(name, help, vs, sum, uint64(len(xs))), true
}

// summaryRows renders a summary family: one quantile line per
// summaryQuantiles entry (values vs), then _sum and _count.
func summaryRows(name, help string, vs []float64, sum float64, count uint64) promFamily {
	f := promFamily{name: name, typ: "summary", help: help}
	for i, q := range summaryQuantiles {
		f.lines = append(f.lines, fmt.Sprintf("%s%s{quantile=\"%g\"} %g",
			promPrefix, name, q/100, vs[i]))
	}
	f.lines = append(f.lines,
		fmt.Sprintf("%s%s_sum %g", promPrefix, name, sum),
		fmt.Sprintf("%s%s_count %d", promPrefix, name, count))
	return f
}
