package telemetry_test

import (
	"bytes"
	"strings"
	"testing"

	"jvmgc/internal/hdrhist"
	"jvmgc/internal/telemetry"
)

// TestPromSnapshotRendering: counters, gauges and summaries render as
// sorted, prefixed families; repeated builds are byte-identical.
func TestPromSnapshotRendering(t *testing.T) {
	build := func() string {
		var snap telemetry.PromSnapshot
		snap.Counter("labd.jobs.submitted", "Jobs submitted.", 7)
		snap.Gauge("labd.queue.depth", "Queue depth.", 3)
		snap.Summary("labd_job_latency_seconds", "Job latency.",
			[]float64{0.1, 0.2, 0.3, 0.4})
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("snapshot rendering is not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"# TYPE jvmgc_labd_jobs_submitted_total counter",
		"jvmgc_labd_jobs_submitted_total 7",
		"# TYPE jvmgc_labd_queue_depth gauge",
		"jvmgc_labd_queue_depth 3",
		"# TYPE jvmgc_labd_job_latency_seconds summary",
		"jvmgc_labd_job_latency_seconds_count 4",
		"jvmgc_labd_job_latency_seconds{quantile=\"0.5\"}",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("snapshot missing %q in:\n%s", want, a)
		}
	}
	// Families must appear in sorted name order.
	ji := strings.Index(a, "jvmgc_labd_job_latency_seconds")
	si := strings.Index(a, "jvmgc_labd_jobs_submitted_total")
	qi := strings.Index(a, "jvmgc_labd_queue_depth")
	if !(ji < si && si < qi) {
		t.Errorf("families not sorted: latency@%d submitted@%d queue@%d", ji, si, qi)
	}
}

// TestPromSnapshotRecorderCounters: folding a Recorder's counters into a
// snapshot matches the Recorder's own WritePrometheus counter families.
func TestPromSnapshotRecorderCounters(t *testing.T) {
	rec := telemetry.New(telemetry.Config{})
	rec.Add("gc.young", 3)
	rec.Add("gc.full", 1)

	var snap telemetry.PromSnapshot
	snap.AddRecorderCounters(rec)
	var got bytes.Buffer
	if err := snap.Write(&got); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var want bytes.Buffer
	if err := rec.WritePrometheus(&want); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("counter families diverge:\nsnapshot:\n%s\nrecorder:\n%s",
			got.String(), want.String())
	}
}

// TestPromSnapshotSummaryHist: a summary rendered from a streaming
// histogram has the same family shape as one over raw observations,
// with exact _sum and _count and bucket-resolution quantiles; an empty
// histogram renders nothing.
func TestPromSnapshotSummaryHist(t *testing.T) {
	h := hdrhist.New(hdrhist.Config{})
	for _, v := range []float64{0.25, 0.5, 0.5, 1, 2} {
		h.Record(v)
	}
	var snap telemetry.PromSnapshot
	snap.SummaryHist("labd_job_latency_seconds", "Job latency.", h)
	snap.SummaryHist("empty_seconds", "Nothing.", hdrhist.New(hdrhist.Config{}))
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jvmgc_labd_job_latency_seconds summary",
		"jvmgc_labd_job_latency_seconds{quantile=\"0.5\"} 0.5",
		"jvmgc_labd_job_latency_seconds{quantile=\"0.99\"}",
		"jvmgc_labd_job_latency_seconds_sum 4.25",
		"jvmgc_labd_job_latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "empty_seconds") {
		t.Errorf("empty histogram rendered a family:\n%s", out)
	}
}
