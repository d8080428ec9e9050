package labd_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

func startDaemon(t *testing.T, cfg labd.Config) (*client.Client, *labd.Server) {
	t.Helper()
	srv, err := labd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler()) // ephemeral 127.0.0.1 port
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return client.New(ts.URL), srv
}

// metricValue pulls one un-labeled sample out of a Prometheus text body.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %s missing from:\n%s", name, metrics)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestEndToEndCacheByteIdentity is the subsystem's acceptance test:
// labd on an ephemeral port, the same job submitted twice concurrently
// and once after completion — exactly one simulation executes, all three
// responses are byte-identical, and /metrics accounts for the cache
// traffic and queue state.
func TestEndToEndCacheByteIdentity(t *testing.T) {
	c, _ := startDaemon(t, labd.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	spec := labd.JobSpec{
		Kind:            labd.KindSimulate,
		Collector:       "CMS",
		HeapBytes:       4 << 30,
		DurationSeconds: 10,
		Seed:            42,
	}

	// Two concurrent identical submissions.
	var wg sync.WaitGroup
	subs := make([]*client.Submission, 2)
	errs := make([]error, 2)
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i], errs[i] = c.Submit(ctx, spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent submit %d: %v", i, err)
		}
	}

	// One more after completion: must be a cache hit.
	third, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("third submit: %v", err)
	}
	if third.Cache != "hit" {
		t.Errorf("third submission disposition = %q, want \"hit\"", third.Cache)
	}

	// All three responses byte-identical.
	for i, s := range subs {
		if !bytes.Equal(s.Bytes, third.Bytes) {
			t.Errorf("submission %d bytes differ from cache hit (%d vs %d bytes)",
				i, len(s.Bytes), len(third.Bytes))
		}
	}
	if subs[0].Key != third.Key || subs[1].Key != third.Key {
		t.Errorf("content keys diverge: %s %s %s", subs[0].Key, subs[1].Key, third.Key)
	}

	// The result decodes and carries the simulation payload.
	res, err := third.Result()
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Kind != labd.KindSimulate || res.Simulation == nil || res.Text == "" {
		t.Errorf("result incomplete: kind=%q sim=%v text=%q", res.Kind, res.Simulation != nil, res.Text)
	}
	if res.Spec.Collector != "CMS" {
		t.Errorf("normalized spec echoed wrong collector %q", res.Spec.Collector)
	}

	// Metrics: exactly one simulation, one miss, and two served-from-
	// flight-or-cache submissions (the concurrent pair may coalesce or
	// the second may land after completion as a plain hit — both count
	// as deduplicated traffic).
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_simulations_total"); got != 1 {
		t.Errorf("simulations = %g, want 1", got)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_cache_misses_total"); got != 1 {
		t.Errorf("cache misses = %g, want 1", got)
	}
	hits := metricValue(t, metrics, "jvmgc_labd_cache_hits_total")
	coalesced := 0.0
	if regexp.MustCompile(`jvmgc_labd_jobs_coalesced_total`).MatchString(metrics) {
		coalesced = metricValue(t, metrics, "jvmgc_labd_jobs_coalesced_total")
	}
	if hits+coalesced != 2 {
		t.Errorf("hits (%g) + coalesced (%g) = %g, want 2", hits, coalesced, hits+coalesced)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_queue_depth"); got != 0 {
		t.Errorf("queue depth = %g, want 0 after completion", got)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_jobs_running"); got != 0 {
		t.Errorf("jobs running = %g, want 0 after completion", got)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_jobs_submitted_total"); got != 3 {
		t.Errorf("submitted = %g, want 3", got)
	}
	// The latency summary counts the jobs that ran through the
	// scheduler, and only those create job records — fast-path cache
	// hits (fastpath.go) are served without one. So the summary must
	// count exactly the registered jobs, while the streaming histogram
	// must have seen all three submissions.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_job_latency_seconds_count"); got != float64(len(jobs)) {
		t.Errorf("latency summary count = %g, want %d (one per scheduled job)", got, len(jobs))
	}
	if got := metricValue(t, metrics, "jvmgc_labd_job_latency_hist_seconds_count"); got != 3 {
		t.Errorf("latency histogram count = %g, want 3 (every submission)", got)
	}
}

// TestEndToEndAsync: async submission returns 202-with-status, Wait
// observes completion, and the /result endpoint serves bytes identical
// to a synchronous submission of the same spec.
func TestEndToEndAsync(t *testing.T) {
	c, _ := startDaemon(t, labd.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	spec := labd.JobSpec{
		Kind:             labd.KindAdvise,
		HeapBytes:        8 << 30,
		AllocBytesPerSec: 400e6,
		DurationSeconds:  30,
		MaxPauseMS:       500,
		Seed:             3,
	}
	info, err := c.SubmitAsync(ctx, labd.SubmitRequest{Job: spec})
	if err != nil {
		t.Fatalf("async submit: %v", err)
	}
	if info.ID == "" || info.Key == "" {
		t.Fatalf("async info incomplete: %+v", info)
	}
	done, err := c.Wait(ctx, info.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if done.Status != labd.StatusDone {
		t.Fatalf("status = %s (%s), want done", done.Status, done.Error)
	}
	asyncBytes, err := c.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}

	sync, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("sync submit: %v", err)
	}
	if sync.Cache != "hit" {
		t.Errorf("sync resubmission disposition = %q, want \"hit\"", sync.Cache)
	}
	if !bytes.Equal(asyncBytes, sync.Bytes) {
		t.Error("async result bytes differ from synchronous cache hit")
	}

	res, err := sync.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Advice) == 0 {
		t.Error("advise job returned no candidates")
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	// One record: the async submission. The sync resubmission was served
	// on the zero-allocation fast path (fastpath.go), which answers from
	// stored bytes without registering a job.
	if len(jobs) != 1 {
		t.Errorf("job records = %d, want 1", len(jobs))
	}
}

// TestEndToEndValidation: bad specs surface as HTTP 400 with a JSON
// error envelope.
func TestEndToEndValidation(t *testing.T) {
	c, _ := startDaemon(t, labd.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()

	for _, spec := range []labd.JobSpec{
		{},                      // kind missing
		{Kind: "hyperspace"},    // unknown kind
		{Kind: labd.KindAdvise}, // missing heap/alloc
		{Kind: labd.KindClientServer, Workload: "Z"}, // bad YCSB letter
	} {
		_, err := c.Submit(ctx, spec)
		apiErr, ok := err.(*client.APIError)
		if !ok || apiErr.StatusCode != 400 {
			t.Errorf("spec %+v: got %v, want HTTP 400", spec, err)
		}
	}

	if _, err := c.Job(ctx, "j999"); err == nil {
		t.Error("unknown job id must 404")
	}
}
