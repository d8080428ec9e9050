package labd

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jvmgc/internal/telemetry"
)

// stubServer builds a daemon whose runner is replaced by fn, so
// scheduler behaviour is testable without running simulations.
func stubServer(t *testing.T, cfg Config, fn func(ctx context.Context, spec JobSpec, parallelism int) (*JobResult, error)) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.runSpec = func(ctx context.Context, spec JobSpec, parallelism int, _ *telemetry.Recorder) (*JobResult, error) {
		return fn(ctx, spec, parallelism)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

func simSpec(seed uint64) JobSpec {
	return JobSpec{Kind: KindSimulate, DurationSeconds: 1, Seed: seed}
}

// TestBackpressure: with one busy worker and a one-slot queue, a third
// distinct job bounces with ErrQueueFull, and the rejection is counted.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	s := stubServer(t, Config{Workers: 1, QueueDepth: 1},
		func(_ context.Context, spec JobSpec, _ int) (*JobResult, error) {
			<-release
			return &JobResult{Kind: spec.Kind, Spec: spec, Text: "ok"}, nil
		})

	j1, err := s.Submit(SubmitRequest{Job: simSpec(1)})
	if err != nil {
		t.Fatalf("job 1: %v", err)
	}
	// Wait until the worker picked up job 1 so job 2 occupies the queue.
	for i := 0; s.Running() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.Running() != 1 {
		t.Fatal("job 1 never started")
	}
	j2, err := s.Submit(SubmitRequest{Job: simSpec(2)})
	if err != nil {
		t.Fatalf("job 2: %v", err)
	}
	if _, err := s.Submit(SubmitRequest{Job: simSpec(3)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("job 3: got %v, want ErrQueueFull", err)
	}
	if got := s.Recorder().Counter("labd.jobs.rejected"); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(release)
	for _, j := range []*Job{j1, j2} {
		<-j.Done()
		if _, err := j.Result(); err != nil {
			t.Errorf("%s: %v", j.ID, err)
		}
	}
}

// TestJobTimeout: a job whose deadline expires mid-run reports failure,
// but the execution still completes the flight and populates the cache
// for future requests.
func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	s := stubServer(t, Config{Workers: 1, QueueDepth: 4},
		func(_ context.Context, spec JobSpec, _ int) (*JobResult, error) {
			<-release
			return &JobResult{Kind: spec.Kind, Spec: spec, Text: "late"}, nil
		})

	j, err := s.Submit(SubmitRequest{Job: simSpec(1), TimeoutSeconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, err := j.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("result err = %v, want deadline exceeded", err)
	}
	if j.Info().Status != StatusFailed {
		t.Fatalf("status = %s, want failed", j.Info().Status)
	}

	// The abandoned execution still lands in the cache.
	close(release)
	key := j.Key
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.cache.get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed-out job never populated the cache")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := s.Submit(SubmitRequest{Job: simSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if !j2.Info().CacheHit {
		t.Error("resubmission after background completion should hit the cache")
	}
}

// TestCancelQueuedJob: canceling a queued job fails it without running,
// and its coalesced followers fail with it.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	var ran atomic.Int64
	s := stubServer(t, Config{Workers: 1, QueueDepth: 4},
		func(_ context.Context, spec JobSpec, _ int) (*JobResult, error) {
			ran.Add(1)
			if spec.Seed == 1 {
				<-release
			}
			return &JobResult{Kind: spec.Kind, Spec: spec}, nil
		})

	blocker, err := s.Submit(SubmitRequest{Job: simSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; s.Running() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(SubmitRequest{Job: simSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.Submit(SubmitRequest{Job: simSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Info().Coalesced {
		t.Fatal("identical submission should coalesce onto the queued job")
	}

	queued.Cancel()
	<-queued.Done()
	if queued.Info().Status != StatusFailed {
		t.Fatalf("canceled job status = %s, want failed", queued.Info().Status)
	}
	<-follower.Done()
	if follower.Info().Status != StatusFailed {
		t.Fatalf("follower status = %s, want failed", follower.Info().Status)
	}

	close(release)
	<-blocker.Done()
	if got := ran.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (canceled job must not run)", got)
	}
}

// TestDrainRejectsAndFinishes: Drain stops intake, finishes queued work,
// and makes later submissions fail with ErrDraining.
func TestDrainRejectsAndFinishes(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.runSpec = func(_ context.Context, spec JobSpec, _ int, _ *telemetry.Recorder) (*JobResult, error) {
		time.Sleep(10 * time.Millisecond)
		return &JobResult{Kind: spec.Kind, Spec: spec}, nil
	}

	var jobs []*Job
	for seed := uint64(1); seed <= 4; seed++ {
		j, err := s.Submit(SubmitRequest{Job: simSpec(seed)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Errorf("%s still unfinished after drain", j.ID)
		}
		if _, err := j.Result(); err != nil {
			t.Errorf("%s: %v", j.ID, err)
		}
	}
	if _, err := s.Submit(SubmitRequest{Job: simSpec(9)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: got %v, want ErrDraining", err)
	}
}

// TestCacheHitsLeaveRecorderBounded: cache hits served through the
// scheduler (the path every traced request takes) add nothing to the
// daemon's recorder, so its memory does not grow with requests served,
// while the job-latency summary still counts every scheduled job.
func TestCacheHitsLeaveRecorderBounded(t *testing.T) {
	s := stubServer(t, Config{Workers: 1, QueueDepth: 4},
		func(_ context.Context, spec JobSpec, _ int) (*JobResult, error) {
			return &JobResult{Kind: spec.Kind, Spec: spec, Text: "ok"}, nil
		})
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			j, err := s.Submit(SubmitRequest{Job: simSpec(1)})
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			if _, err := j.Result(); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(10) // one miss, then hits
	spans := len(s.Recorder().Spans())
	submit(990)
	if got := s.Recorder().Counter("labd.cache.hits"); got != 999 {
		t.Fatalf("cache hits = %d, want 999", got)
	}
	if got := len(s.Recorder().Spans()); got != spans {
		t.Errorf("recorder spans grew from %d to %d over 990 cache hits", spans, got)
	}

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf("jvmgc_labd_job_latency_seconds_count %d\n", 1000); !strings.Contains(rr.Body.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}
