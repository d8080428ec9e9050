package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

// Generator settings: the load comes from this one process with two
// closed-loop clients over at most two connections.
const (
	genClients = 2
	genConns   = 2
	reqTimeout = 60 * time.Second
)

// newGenTransport returns the generator's HTTP transport.
func newGenTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxConnsPerHost:     genConns,
		MaxIdleConnsPerHost: genConns,
		IdleConnTimeout:     90 * time.Second,
	}
}

// loader drives the closed loop: each client sends its next request only
// after the previous one returned, taking requests in sequence order.
type loader struct {
	clients []*client.Client
	specs   []labd.JobSpec
	seq     []int32
	verify  *verifier
	spans   *spanLog // nil unless tracing
}

func newLoader(baseURL string, specs []labd.JobSpec, seq []int32, v *verifier) *loader {
	hc := &http.Client{Transport: newGenTransport()}
	l := &loader{specs: specs, seq: seq, verify: v}
	for i := 0; i < genClients; i++ {
		c := client.New(baseURL)
		c.HTTPClient = hc
		l.clients = append(l.clients, c)
	}
	return l
}

// batch is what one run of requests observed.
type batch struct {
	latMS    []float64 // client-side latency of each completed request
	encodeUS []float64 // traced only: request encoding time
	failed   int
	firstErr error          // the first failure, for the run's log
	disp     map[string]int // X-Labd-Cache dispositions
}

func (b *batch) merge(o batch) {
	b.latMS = append(b.latMS, o.latMS...)
	b.encodeUS = append(b.encodeUS, o.encodeUS...)
	b.failed += o.failed
	if b.firstErr == nil {
		b.firstErr = o.firstErr
	}
	if b.disp == nil {
		b.disp = make(map[string]int)
	}
	for k, v := range o.disp {
		b.disp[k] += v
	}
}

// run sends seq[from:to] through the clients and returns once every
// request has completed.
func (l *loader) run(ctx context.Context, from, to int) batch {
	var next atomic.Int64
	next.Store(int64(from))
	parts := make([]batch, len(l.clients))
	var wg sync.WaitGroup
	for w, c := range l.clients {
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			b := batch{latMS: make([]float64, 0, (to-from)/len(l.clients)+1), disp: make(map[string]int)}
			for {
				i := int(next.Add(1) - 1)
				if i >= to || ctx.Err() != nil {
					break
				}
				l.one(ctx, w, c, l.seq[i], &b)
			}
			parts[w] = b
		}(w, c)
	}
	wg.Wait()
	var out batch
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

func (l *loader) one(ctx context.Context, worker int, c *client.Client, idx int32, b *batch) {
	spec := l.specs[idx]
	start := time.Now()
	if l.spans != nil {
		// The client encodes the same request inside Submit; timing a
		// twin encode here is part of the tracing overhead.
		if _, err := json.Marshal(labd.SubmitRequest{Job: spec}); err == nil {
			b.encodeUS = append(b.encodeUS, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	sent := time.Now()
	rctx, cancel := context.WithTimeout(ctx, reqTimeout)
	sub, err := c.Submit(rctx, spec)
	cancel()
	done := time.Now()
	if l.spans != nil {
		l.spans.add(span{Name: "client.encode", Start: start, End: sent, Worker: worker})
		l.spans.add(span{Name: "client.submit", Start: sent, End: done, Worker: worker})
	}
	if err == nil && !l.verify.check(idx, sub.Bytes) {
		err = fmt.Errorf("spec %d: response body differs from the reference bytes", idx)
	}
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
		return
	}
	b.disp[sub.Cache]++
	b.latMS = append(b.latMS, float64(done.Sub(sent).Nanoseconds())/1e6)
}

// retries sums the resilience layer's retries over all clients.
func (l *loader) retries() int64 {
	var n int64
	for _, c := range l.clients {
		n += c.Stats().Retries
	}
	return n
}

func (l *loader) close() {
	l.clients[0].HTTPClient.CloseIdleConnections()
}
