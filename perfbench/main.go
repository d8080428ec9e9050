// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output the program produces, and prints
// the workload's end-to-end metrics (or, with -trace 1, its per-layer
// metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// The service workloads drive real gclabd processes; -gclabd names the
// binary, built from the same tree. perfbench/run.py builds both and
// passes the flags; see perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; README.md defines each per workload.
var endToEnd = []metricDef{
	{"eval_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_us_per_req", "us"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.stability_ms", "ms"},
		{"core.fig1_ms", "ms"},
		{"core.fig2_ms", "ms"},
		{"core.table3_ms", "ms"},
		{"core.table4_ms", "ms"},
		{"core.fig3_ms", "ms"},
		{"core.server_ms", "ms"},
		{"core.client_ms", "ms"},
		{"core.render_ms", "ms"},
		{"core.client.ParallelOld_ms", "ms"},
		{"core.client.CMS_ms", "ms"},
		{"core.client.G1_ms", "ms"},
		{"cassandra.run_ms", "ms"},
		{"ycsb.trace_ms", "ms"},
		{"stats.bands_ms", "ms"},
		{"goruntime.alloc_mb", "MB"},
		{"goruntime.gc_cycles", "count"},
		{"goruntime.gc_cpu_s", "s"},
		{"client.encode_us", "us"},
		{"transport.rtt_us", "us"},
		{"labd.key_us", "us"},
		{"labd.handler_us", "us"},
		{"labd.job_p50_ms", "ms"},
		{"labd.job_p99_ms", "ms"},
		{"labd.hits_memory", "count"},
		{"labd.hits_peer", "count"},
		{"labd.misses", "count"},
		{"labd.coalesced", "count"},
		{"labd.simulations", "count"},
		{"labd.hit_ratio", "ratio"},
		{"labd.queue_wait_ms", "ms"},
		{"fleet.forwards", "count"},
		{"fleet.local_jobs", "count"},
		{"fleet.peer_probes", "count"},
		{"fleet.peer_hits", "count"},
		{"node.cpu_share_max", "ratio"},
		{"jvmgc.simulate_ms", "ms"},
		{"dacapo.benchmark_ms", "ms"},
		{"labd.result_encode_us", "us"},
		{"goruntime.daemon_gc_cycles", "count"},
		{"goruntime.daemon_gc_pause_p99_ms", "ms"},
		{"goruntime.daemon_gc_pause_max_ms", "ms"},
		{"gen.cpu_us_per_req", "us"},
		{"client.retries", "count"},
		{"client.cache_hit", "count"},
		{"client.cache_miss", "count"},
		{"client.cache_peer", "count"},
		{"client.cache_coalesced", "count"},
		{"trace.samples", "count"},
	}
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"trace.overhead." + m.name, "%"})
	}
	return defs
}()

var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric under its declared unit.
func (m metrics) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, u}
}

// setOverhead records how much tracing moved each end-to-end metric, as
// a percentage of the untraced value.
func setOverhead(untraced, traced, m metrics) {
	for _, d := range endToEnd {
		if u := untraced[d.name].Value; u != 0 {
			m.set("trace.overhead."+d.name, 100*(traced[d.name].Value-u)/u)
		}
	}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	gclabd   string
	stateDir string
}

func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c config) tracePath() string {
	return filepath.Join(c.stateDir, fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
}

func main() {
	var (
		cfg   config
		trace int
		probe bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-eval, svc-hit or fleet-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 42, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.gclabd, "gclabd", "", "gclabd binary built from this tree (service workloads)")
	flag.StringVar(&cfg.stateDir, "state", ".bench_build/perfbench", "directory for daemon logs, the pid file and span dumps")
	flag.BoolVar(&probe, "setup-probe", false, "internal: construct the evaluation and exit (times start-up)")
	flag.Parse()
	if probe {
		setupProbe(cfg.seed)
		return
	}
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(2)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(cfg, res)
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		return nil, err
	}
	procs := newFleetProcs(cfg.gclabd, cfg.stateDir)
	if err := procs.checkStale(); err != nil {
		return nil, err
	}
	// Stop the daemons on every way out: return, panic, or a signal.
	defer procs.stopAll()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch cfg.workload {
	case wlPaper:
		return runPaper(ctx, cfg)
	case wlHit, wlFleet:
		if cfg.gclabd == "" {
			return nil, fmt.Errorf("workload %s needs -gclabd", cfg.workload)
		}
		return runService(ctx, cfg, procs)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// printResult prints each metric on its own line, then the result as
// one JSON object on the last line.
func printResult(cfg config, res *result) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, d := range defs {
			if _, ok := res.Metrics[d.name]; !ok {
				res.Metrics.set(d.name, 0)
			}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%s seed %d: attempted %d, failed %d, correct %v\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, res.Correct)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
