package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"jvmgc"
	"jvmgc/internal/labd"
	"jvmgc/internal/obs"
)

// Isolation probes: each times one layer's public entry point on the
// workload's inputs, outside the load.
const (
	probeCalls = 2000 // calls per sub-millisecond probe
	probeMiss  = 24   // miss specs per simulation probe
)

// perCallUS times fn over calls calls in batches of batch and returns
// the median per-call time in µs.
func perCallUS(calls, batch int, fn func(i int) error) (float64, error) {
	var per []float64
	for i := 0; i < calls; i += batch {
		start := time.Now()
		for j := i; j < i+batch; j++ {
			if err := fn(j); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/float64(batch))
	}
	return median(per), nil
}

// serviceLayers runs the isolation probes of the request path (on
// svc-hit's specs, the hit path) and the miss path (on fleet-mixed's
// universe).
func serviceLayers(seed uint64, m metrics) error {
	hit := hitSpecSet(seed)
	bodies := make([][]byte, len(hit))
	for i, s := range hit {
		b, err := json.Marshal(labd.SubmitRequest{Job: s})
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	us, err := perCallUS(probeCalls*10, 100, func(i int) error {
		_, err := labd.SpecKey(hit[i%len(hit)])
		return err
	})
	if err != nil {
		return err
	}
	m.set("labd.key_us", us)
	if us, err = transportRTT(bodies); err != nil {
		return err
	}
	m.set("transport.rtt_us", us)
	if us, err = handlerHit(hit, bodies); err != nil {
		return err
	}
	m.set("labd.handler_us", us)
	return missLayers(fleetSpecSet(seed), m)
}

// transportRTT times POSTs of the workload's request bodies to an empty
// handler over loopback, with the generator's transport settings.
func transportRTT(bodies [][]byte) (float64, error) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the probe only times the round trip
	}))
	defer srv.Close()
	tr := newGenTransport()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	return perCallUS(probeCalls, 1, func(i int) error {
		resp, err := hc.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse only
		return resp.Body.Close()
	})
}

// handlerHit primes an in-process daemon configured like gclabd's
// defaults (tracing and the SLO monitor on) and times its HTTP handler
// answering cache hits.
func handlerHit(specs []labd.JobSpec, bodies [][]byte) (float64, error) {
	srv, err := labd.New(labd.Config{
		Tracer: obs.NewTracer(obs.Config{Capacity: 256, SlowestK: 16}),
		SLO: obs.NewSLO(obs.SLOConfig{
			LatencyThreshold: 500 * time.Millisecond,
			LatencyTarget:    0.99,
			ErrorTarget:      0.999,
		}),
	})
	if err != nil {
		return 0, err
	}
	defer func() { _ = srv.Drain(context.Background()) }()
	ref := &reference{srv}
	for _, s := range specs {
		if _, err := ref.bytes(s); err != nil {
			return 0, err
		}
	}
	h := srv.Handler()
	return perCallUS(probeCalls, 1, func(i int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Labd-Cache") != "hit" {
			return fmt.Errorf("handler probe: HTTP %d, cache %q", rec.Code, rec.Header().Get("X-Labd-Cache"))
		}
		return nil
	})
}

// missLayers times the simulator entry points a cache miss reaches, and
// the encoding of their results, on the first probeMiss specs of each
// kind in the miss universe.
func missLayers(universe []labd.JobSpec, m metrics) error {
	var simMS, benchMS, encUS []float64
	for _, s := range universe {
		if len(simMS) >= probeMiss && len(benchMS) >= probeMiss {
			break
		}
		res := labd.JobResult{Kind: s.Kind, Spec: s}
		start := time.Now()
		var err error
		switch {
		case s.Kind == labd.KindSimulate && len(simMS) < probeMiss:
			res.Simulation, err = jvmgc.Simulate(jvmgc.SimulationConfig{
				Collector:        s.Collector,
				HeapBytes:        s.HeapBytes,
				AllocBytesPerSec: s.AllocBytesPerSec,
				Seed:             s.Seed,
			}, time.Duration(s.DurationSeconds*float64(time.Second)))
			simMS = append(simMS, float64(time.Since(start).Nanoseconds())/1e6)
		case s.Kind == labd.KindBenchmark && len(benchMS) < probeMiss:
			res.Benchmark, err = jvmgc.RunBenchmark(jvmgc.BenchmarkOptions{
				Benchmark: s.Benchmark,
				Collector: s.Collector,
				Seed:      s.Seed,
			})
			benchMS = append(benchMS, float64(time.Since(start).Nanoseconds())/1e6)
		default:
			continue
		}
		if err != nil {
			return err
		}
		us, err := perCallUS(20, 1, func(int) error { _, err := json.Marshal(&res); return err })
		if err != nil {
			return err
		}
		encUS = append(encUS, us)
	}
	m.set("jvmgc.simulate_ms", median(simMS))
	m.set("dacapo.benchmark_ms", median(benchMS))
	m.set("labd.result_encode_us", median(encUS))
	return nil
}
