package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Service workload shapes.
const (
	setupRuns = 7 // set-ups per run; setup_s is their median
	// Requests per round. Every end-to-end figure but peak RSS is a
	// median over rounds, which keeps a second of host noise from moving
	// a run; a round's p99 has at least ten samples beyond it.
	hitRound   = 2000
	fleetRound = 1000
	// Peak RSS is read once the measured phase has served this many
	// requests: gclabd's heap grows with the requests it has served, so
	// a reading after a fixed time would move with throughput.
	hitRSSAt   = 60000
	fleetRSSAt = 12000
	// maxRPS sizes the materialized request sequence; a run that
	// outpaces it stops early rather than wrapping around.
	maxRPS = 40000
)

// svcShape describes one service workload.
type svcShape struct {
	nodes  int
	round  int
	rssAt  int
	warmup int // sequence prefix replayed during set-up (fleet-mixed)
}

func shapeOf(workload string) svcShape {
	if workload == wlFleet {
		return svcShape{nodes: 3, round: fleetRound, rssAt: fleetRSSAt, warmup: fleetWarmup}
	}
	return svcShape{nodes: 1, round: hitRound, rssAt: hitRSSAt}
}

// phase accumulates the rounds of one kind: untraced, or traced with
// client spans and daemon counter scrapes around each round.
type phase struct {
	batch
	round     int
	rounds    []float64 // wall seconds of each fixed-size round
	p50, p99  []float64 // each round's latency percentiles, ms
	cpu       []float64 // each round's daemon CPU seconds, all daemons
	daemonCPU []float64 // CPU seconds each daemon used over all rounds
	genCPU    float64   // CPU seconds the generator used
	retries   int64
	runtime   runtimeTotals // the generator's Go runtime
	layers    *layerDeltas  // traced phases only
}

func newPhase(round, daemons int, traced bool) *phase {
	p := &phase{round: round, daemonCPU: make([]float64, daemons)}
	if traced {
		p.layers = &layerDeltas{counters: make(map[string]float64)}
	}
	return p
}

func (p *phase) endToEnd(setup, rss float64, m metrics) {
	rps := make([]float64, len(p.rounds))
	perReq := make([]float64, len(p.rounds))
	for i, w := range p.rounds {
		rps[i] = float64(p.round) / w
		perReq[i] = p.cpu[i] / float64(p.round) * 1e6
	}
	m.set("eval_s", median(p.rounds))
	m.set("cpu_s", median(p.cpu))
	m.set("peak_rss_mb", rss)
	m.set("setup_s", setup)
	m.set("rps", median(rps))
	m.set("p50_ms", median(p.p50))
	m.set("p99_ms", median(p.p99))
	m.set("cpu_us_per_req", median(perReq))
}

func daemonsCPU(ds []*daemon) ([]float64, error) {
	out := make([]float64, len(ds))
	for i, d := range ds {
		c, err := procCPU(d.pid())
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// runRound sends seq[pos:pos+p.round] and adds what it observed to p.
func (p *phase) runRound(ctx context.Context, l *loader, ds []*daemon, pos int, spans *spanLog) error {
	var before scrape
	if p.layers != nil {
		var err error
		if before, err = scrapeAll(ctx, ds); err != nil {
			return err
		}
		l.spans = spans
		defer func() { l.spans = nil }()
	}
	cpu0, err := daemonsCPU(ds)
	if err != nil {
		return err
	}
	gen0, retries0, rt0 := selfCPU(), l.retries(), readRuntime()
	start := time.Now()
	b := l.run(ctx, pos, pos+p.round)
	p.rounds = append(p.rounds, time.Since(start).Seconds())
	p.genCPU += selfCPU() - gen0
	p.retries += l.retries() - retries0
	p.runtime = p.runtime.add(readRuntime().sub(rt0))
	cpu1, err := daemonsCPU(ds)
	if err != nil {
		return err
	}
	cpu := 0.0
	for i := range cpu1 {
		p.daemonCPU[i] += cpu1[i] - cpu0[i]
		cpu += cpu1[i] - cpu0[i]
	}
	p.cpu = append(p.cpu, cpu)
	p.p50 = append(p.p50, pct(b.latMS, 50))
	p.p99 = append(p.p99, pct(b.latMS, 99))
	p.merge(b)
	if p.layers != nil {
		after, err := scrapeAll(ctx, ds)
		if err != nil {
			return err
		}
		p.layers.add(before, after)
	}
	return ctx.Err()
}

// measure runs whole rounds from seq[pos] until budget has elapsed and
// returns the untraced phase, the traced phase (nil unless spans is
// set) and the daemons' peak RSS once shape.rssAt requests were served.
// A traced run alternates untraced and traced rounds, so both see the
// same daemon state and the difference between them is the tracing
// overhead.
func measure(ctx context.Context, l *loader, ds []*daemon, pos int, shape svcShape, budget time.Duration, spans *spanLog) (plain, traced *phase, rss float64, err error) {
	plain = newPhase(shape.round, len(ds), false)
	kinds := []*phase{plain}
	if spans != nil {
		traced = newPhase(shape.round, len(ds), true)
		kinds = append(kinds, traced)
	}
	start := time.Now()
	for i := 0; i < len(kinds) || time.Since(start) < budget; i++ {
		if pos+shape.round > len(l.seq) {
			fmt.Printf("request sequence exhausted after %d rounds\n", i)
			break
		}
		if err := kinds[i%len(kinds)].runRound(ctx, l, ds, pos, spans); err != nil {
			return nil, nil, 0, err
		}
		pos += shape.round
		if served := (i + 1) * shape.round; rss == 0 && served >= shape.rssAt {
			if rss, err = peakRSS(ds); err != nil {
				return nil, nil, 0, err
			}
			fmt.Printf("peak RSS read after %d measured requests\n", served)
		}
	}
	if rss == 0 {
		fmt.Printf("run ended before %d measured requests; peak RSS read at the end\n", shape.rssAt)
		if rss, err = peakRSS(ds); err != nil {
			return nil, nil, 0, err
		}
	}
	return plain, traced, rss, nil
}

// prime submits every spec once, in index order.
func prime(ctx context.Context, l *loader, specs int) batch {
	full := l.seq
	l.seq = make([]int32, specs)
	for i := range l.seq {
		l.seq[i] = int32(i)
	}
	defer func() { l.seq = full }()
	return l.run(ctx, 0, specs)
}

// peakRSS returns the service's peak resident memory in MB: the sum of
// the daemons' VmHWM. A fleet's three nodes peak at different times and
// by different amounts from run to run, so the largest single node moves
// several times as much as the sum (README.md gives the figures).
func peakRSS(ds []*daemon) (float64, error) {
	var rss []float64
	total := 0.0
	for _, d := range ds {
		r, err := procPeakRSS(d.pid())
		if err != nil {
			return 0, err
		}
		rss = append(rss, r)
		total += r
	}
	fmt.Printf("daemon peak RSS MB: %.1f\n", rss)
	return total, nil
}

func runService(ctx context.Context, cfg config, procs *fleetProcs) (*result, error) {
	shape := shapeOf(cfg.workload)
	specs := specSet(cfg.workload, cfg.seed)
	seq, err := sequence(cfg.workload, cfg.seed, shape.warmup+int(cfg.seconds*maxRPS))
	if err != nil {
		return nil, err
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	v := newVerifier(specs)
	if cfg.workload == wlHit {
		// 64 small results: compare bytes in place during the load.
		if err := v.precompute(ref); err != nil {
			return nil, err
		}
	}

	// Set-up: spawn, health check, then prime (svc-hit) or replay the
	// warm-up prefix (fleet-mixed). Only the last set-up's daemons stay.
	var (
		ds     []*daemon
		l      *loader
		setups []float64
		total  batch
	)
	for i := 0; i < setupRuns; i++ {
		if ds != nil {
			l.close()
			procs.stop(ds)
		}
		start := time.Now()
		if ds, err = procs.start(ctx, shape.nodes); err != nil {
			return nil, err
		}
		l = newLoader(ds[0].url, specs, seq, v)
		var b batch
		if shape.warmup > 0 {
			b = l.run(ctx, 0, shape.warmup)
		} else {
			b = prime(ctx, l, len(specs))
		}
		setups = append(setups, time.Since(start).Seconds())
		total.merge(b)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	defer l.close()
	setup := median(setups)

	// One unmeasured round lets the daemons' job registry, trace ring
	// and heap reach their steady size before timing.
	pos := shape.warmup
	total.merge(l.run(ctx, pos, pos+shape.round))
	pos += shape.round

	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
	}
	p, tp, rss, err := measure(ctx, l, ds, pos, shape, cfg.budget(), spans)
	if err != nil {
		return nil, err
	}
	total.merge(p.batch)
	res := &result{Metrics: metrics{}}
	p.endToEnd(setup, rss, res.Metrics)
	if cfg.trace {
		total.merge(tp.batch)
		untraced := res.Metrics
		res.Metrics = metrics{}
		traced := metrics{}
		tp.endToEnd(setup, rss, traced)
		setOverhead(untraced, traced, res.Metrics)
		tp.layerMetrics(res.Metrics)
		if err := spans.write(cfg.tracePath()); err != nil {
			return nil, err
		}
		if err := serviceLayers(cfg.seed, res.Metrics); err != nil {
			return nil, err
		}
	}

	late, err := v.settle(ref, 2)
	if err != nil {
		return nil, err
	}
	res.Attempted = total.requests()
	res.Failed = total.failed + late
	res.Correct = res.Failed == 0
	if total.firstErr != nil {
		fmt.Printf("first failure: %v\n", total.firstErr)
	}
	fmt.Printf("round wall s: %.3f\n", p.rounds)
	fmt.Printf("%s: %d daemon(s), %d closed-loop clients; setup s %.3f; %d measured requests in %d rounds of %d (percentiles per round); cache dispositions %v\n",
		cfg.workload, shape.nodes, genClients, setups, p.requests(), len(p.rounds), shape.round, p.disp)
	return res, nil
}

func (b batch) requests() int { return len(b.latMS) + b.failed }

// scrape is one reading of every daemon's counters.
type scrape struct {
	prom   []promSnap
	router []routerStats
}

// routerStats is the router block of /fleet/nodes.
type routerStats struct {
	Forwards   float64 `json:"forwards"`
	LocalJobs  float64 `json:"local_jobs"`
	PeerProbes float64 `json:"peer_probes"`
	PeerHits   float64 `json:"peer_hits"`
}

func getBody(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, nil
}

func scrapeAll(ctx context.Context, ds []*daemon) (scrape, error) {
	var s scrape
	for _, d := range ds {
		b, err := getBody(ctx, d.url+"/metrics")
		if err != nil {
			return s, err
		}
		p, err := parseProm(string(b))
		if err != nil {
			return s, err
		}
		s.prom = append(s.prom, p)
		var rs routerStats
		if d.id != "" {
			b, err := getBody(ctx, d.url+"/fleet/nodes")
			if err != nil {
				return s, err
			}
			var nodes struct {
				Router routerStats `json:"router"`
			}
			if err := json.Unmarshal(b, &nodes); err != nil {
				return s, fmt.Errorf("/fleet/nodes: %w", err)
			}
			rs = nodes.Router
		}
		s.router = append(s.router, rs)
	}
	return s, nil
}

// layerDeltas sums the daemons' counters over a phase's rounds.
type layerDeltas struct {
	job, wait histDelta
	counters  map[string]float64 // summed over daemons and rounds
	router    routerStats
	last      scrape // the latest scrape, for lifetime gauges
}

// layerCounters are the /metrics counters the traced run reports.
var layerCounters = map[string]string{
	"labd.hits_memory":           "jvmgc_labd_cache_hits_memory_total",
	"labd.hits_peer":             "jvmgc_labd_cache_hits_peer_total",
	"labd.misses":                "jvmgc_labd_cache_misses_total",
	"labd.coalesced":             "jvmgc_labd_jobs_coalesced_total",
	"labd.simulations":           "jvmgc_labd_simulations_total",
	"goruntime.daemon_gc_cycles": "jvmgc_labd_go_gc_cycles",
}

func (d *layerDeltas) add(before, after scrape) {
	for i := range after.prom {
		b, a := before.prom[i], after.prom[i]
		d.job = d.job.add(histogramDelta(b, a, "jvmgc_labd_job_latency_hist_seconds"))
		d.wait = d.wait.add(histogramDelta(b, a, "jvmgc_labd_queue_wait_seconds"))
		for _, series := range layerCounters {
			d.counters[series] += delta(b, a, series)
		}
		d.router = d.router.add(after.router[i].sub(before.router[i]))
	}
	d.last = after
}

func (r routerStats) add(o routerStats) routerStats {
	return routerStats{r.Forwards + o.Forwards, r.LocalJobs + o.LocalJobs, r.PeerProbes + o.PeerProbes, r.PeerHits + o.PeerHits}
}

func (r routerStats) sub(o routerStats) routerStats {
	return routerStats{r.Forwards - o.Forwards, r.LocalJobs - o.LocalJobs, r.PeerProbes - o.PeerProbes, r.PeerHits - o.PeerHits}
}

// layerMetrics reports the traced phase's per-layer metrics.
func (p *phase) layerMetrics(m metrics) {
	reqs := float64(p.requests())
	p.runtime.per(reqs).setMetrics(m)
	m.set("trace.samples", reqs)
	m.set("client.encode_us", median(p.encodeUS))
	m.set("gen.cpu_us_per_req", p.genCPU/reqs*1e6)
	m.set("client.retries", float64(p.retries))
	for _, d := range []string{"hit", "miss", "peer", "coalesced"} {
		m.set("client.cache_"+d, float64(p.disp[d]))
	}

	d := p.layers
	m.set("labd.job_p50_ms", d.job.quantile(0.50)*1e3)
	m.set("labd.job_p99_ms", d.job.quantile(0.99)*1e3)
	m.set("labd.queue_wait_ms", d.wait.mean()*1e3)
	for name, series := range layerCounters {
		m.set(name, d.counters[series])
	}
	// A miss is a flight leader; the peer tier may still answer it, so
	// peer hits are a subset of misses.
	mem := m["labd.hits_memory"].Value
	if looked := mem + m["labd.misses"].Value; looked > 0 {
		m.set("labd.hit_ratio", (mem+m["labd.hits_peer"].Value)/looked)
	}
	var gcP99, gcMax float64
	for _, a := range d.last.prom {
		gcP99 = max(gcP99, a["jvmgc_labd_go_gc_pause_p99_seconds"])
		gcMax = max(gcMax, a["jvmgc_labd_go_gc_pause_max_seconds"])
	}
	m.set("goruntime.daemon_gc_pause_p99_ms", gcP99*1e3)
	m.set("goruntime.daemon_gc_pause_max_ms", gcMax*1e3)
	m.set("fleet.forwards", d.router.Forwards)
	m.set("fleet.local_jobs", d.router.LocalJobs)
	m.set("fleet.peer_probes", d.router.PeerProbes)
	m.set("fleet.peer_hits", d.router.PeerHits)
	cpuTotal := 0.0
	for _, c := range p.daemonCPU {
		cpuTotal += c
	}
	if cpuTotal > 0 {
		m.set("node.cpu_share_max", pct(p.daemonCPU, 100)/cpuTotal)
	}
}
