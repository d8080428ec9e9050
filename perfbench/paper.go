package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	rtmetrics "runtime/metrics"
	"time"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/core"
	"jvmgc/internal/stats"
	"jvmgc/internal/ycsb"
)

// seed42Digest is the SHA-256 of the rendered seed-42 evaluation, the
// same constant internal/core's digest test pins.
const seed42Digest = "0f30d0e36859fef73dbe7275cedf45cecd48f2c3e779f9d83c2ee735adb4b2ac"

// paperParallelism is the evaluation's worker count: one per core of
// the two-core machine the benchmark targets.
const paperParallelism = 2

func newLab(seed uint64) *core.Lab {
	lab := core.NewLab(seed)
	lab.Parallelism = paperParallelism
	return lab
}

// setupProbes is how many times a run measures set-up.
const setupProbes = 11

// paperSetup times a fresh process from exec to a constructed Lab: the
// start-up cost (package initialisation, Lab construction) every
// evaluation pays before its first experiment. It returns the median of
// setupProbes launches.
func paperSetup(ctx context.Context, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		start := time.Now()
		cmd := exec.CommandContext(ctx, self, "-setup-probe", "-seed", fmt.Sprint(seed))
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("setup probe: %v: %s", err, out)
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// setupProbe is the child side of paperSetup.
func setupProbe(seed uint64) {
	_ = newLab(seed)
}

// paperCheck holds a run's reports: at seed 42 each must hash to
// seed42Digest, at any other seed each must equal the run's first.
type paperCheck struct {
	seed   uint64
	first  string
	failed int
}

func (c *paperCheck) check(report string) bool {
	ok := true
	if c.seed == 42 {
		sum := sha256.Sum256([]byte(report))
		ok = hex.EncodeToString(sum[:]) == seed42Digest
	} else if c.first == "" {
		c.first = report
	} else {
		ok = report == c.first
	}
	if !ok {
		c.failed++
	}
	return ok
}

// evalStats are the per-evaluation measurements of one phase.
type evalStats struct {
	wall, cpu []float64
}

// runEvaluations runs fns in turn until budget has elapsed and each has
// run at least once, and returns each one's measurements.
func runEvaluations(ctx context.Context, budget time.Duration, fns ...func() error) ([]evalStats, error) {
	st := make([]evalStats, len(fns))
	start := time.Now()
	for i := 0; i < len(fns) || time.Since(start) < budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := i % len(fns)
		t0, c0 := time.Now(), selfCPU()
		if err := fns[k](); err != nil {
			return nil, err
		}
		st[k].wall = append(st[k].wall, time.Since(t0).Seconds())
		st[k].cpu = append(st[k].cpu, selfCPU()-c0)
	}
	return st, nil
}

// paperEndToEnd maps evaluations onto the shared metric set: one
// evaluation is the unit of work, so rps is evaluations per second and
// the latency percentiles are over evaluation times.
func paperEndToEnd(st evalStats, setup, rss float64, m metrics) {
	wall := median(st.wall)
	m.set("eval_s", wall)
	m.set("cpu_s", median(st.cpu))
	m.set("peak_rss_mb", rss)
	m.set("setup_s", setup)
	m.set("rps", 1/wall)
	m.set("p50_ms", wall*1e3)
	m.set("p99_ms", pct(st.wall, 99)*1e3)
	m.set("cpu_us_per_req", median(st.cpu)*1e6)
}

func runPaper(ctx context.Context, cfg config) (*result, error) {
	setup, err := paperSetup(ctx, cfg.seed)
	if err != nil {
		return nil, err
	}
	chk := &paperCheck{seed: cfg.seed}
	full := func() error {
		rep, err := newLab(cfg.seed).RunAll()
		if err != nil {
			return err
		}
		chk.check(rep.Render())
		return nil
	}
	// One untimed evaluation grows the heap and fills lazy tables first,
	// so the timed ones are alike.
	if err := full(); err != nil {
		return nil, err
	}
	fns := []func() error{full}
	var (
		spans *spanLog
		steps = make(map[string][]float64)
		rt    runtimeTotals
	)
	if cfg.trace {
		// Traced evaluations alternate with untraced ones, so both see
		// the same machine state; the difference is the tracing overhead.
		spans = newSpanLog()
		fns = append(fns, func() error {
			rt0 := readRuntime()
			err := tracedEvaluation(newLab(cfg.seed), spans, steps, chk)
			rt = rt.add(readRuntime().sub(rt0))
			return err
		})
	}
	st, err := runEvaluations(ctx, cfg.budget(), fns...)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: 1, Metrics: metrics{}}
	for _, s := range st {
		res.Attempted += len(s.wall)
	}
	paperEndToEnd(st[0], setup, rss, res.Metrics)
	fmt.Printf("paper-eval: %d timed evaluations at seed %d, parallelism %d, wall s %.3f; p99_ms is the 99th percentile of these %d\n",
		len(st[0].wall), cfg.seed, paperParallelism, st[0].wall, len(st[0].wall))
	if cfg.trace {
		untraced, traced := res.Metrics, metrics{}
		paperEndToEnd(st[1], setup, rss, traced)
		m := metrics{}
		res.Metrics = m
		setOverhead(untraced, traced, m)
		for name, xs := range steps {
			m.set(name, median(xs))
		}
		n := float64(len(st[1].wall))
		rt.per(n).setMetrics(m)
		m.set("trace.samples", n)
		if err := clientStudyLayers(newLab(cfg.seed), spans, m); err != nil {
			return nil, err
		}
		if err := spans.write(cfg.tracePath()); err != nil {
			return nil, err
		}
	}
	res.Failed = chk.failed
	res.Correct = chk.failed == 0
	return res, nil
}

// tracedEvaluation is RunAll split at its steps, each in a span; it
// renders the same report, which is checked like an untraced one.
func tracedEvaluation(lab *core.Lab, spans *spanLog, steps map[string][]float64, chk *paperCheck) error {
	var r core.Report
	var err error
	step := func(name string, fn func() error) {
		if err != nil {
			return
		}
		ms := spans.timed(name, func() { err = fn() })
		steps[name+"_ms"] = append(steps[name+"_ms"], ms)
	}
	pair := func(a, b func() error) func() error {
		return func() error {
			if err := a(); err != nil {
				return err
			}
			return b()
		}
	}
	step("core.stability", func() error { r.Stability = lab.TableStability(); return nil })
	step("core.fig1", pair(
		func() (e error) { r.Fig1a, e = lab.FigurePauseScatter("xalan", true); return },
		func() (e error) { r.Fig1b, e = lab.FigurePauseScatter("xalan", false); return }))
	step("core.fig2", pair(
		func() (e error) { r.Fig2a, e = lab.FigureIterationTimes("xalan", true); return },
		func() (e error) { r.Fig2b, e = lab.FigureIterationTimes("xalan", false); return }))
	step("core.table3", pair(
		func() (e error) { r.Table3CMS, e = lab.TableHeapYoungSweep("h2", "CMS", core.Table3Cases()); return },
		func() (e error) {
			r.Table3PO, e = lab.TableHeapYoungSweep("h2", "ParallelOld", core.Table3Cases())
			return
		}))
	step("core.table4", func() (e error) { r.Table4, e = lab.TableTLAB(); return })
	step("core.fig3", pair(
		func() (e error) { r.Fig3a, e = lab.FigureRanking(true); return },
		func() (e error) { r.Fig3b, e = lab.FigureRanking(false); return }))
	step("core.server", func() (e error) { r.Server, e = lab.ServerPauseStudy(); return })
	step("core.client", func() (e error) { r.Client, e = lab.ClientLatencyStudyAll(); return })
	var text string
	step("core.render", func() error { text = r.Render(); return nil })
	if err != nil {
		return err
	}
	chk.check(text)
	return nil
}

// clientStudyLayers times each collector's client study alone, then
// splits it by re-running its server (cassandra), its YCSB transaction
// trace and the trace's latency bands. The bands must equal the study's
// own, which pins the re-run configuration to core's.
func clientStudyLayers(lab *core.Lab, spans *spanLog, m metrics) error {
	var runMS, traceMS, bandsMS float64
	for _, gc := range core.MainGCNames() {
		var exp core.ClientExperiment
		var err error
		m.set("core.client."+gc+"_ms", spans.timed("core.client."+gc, func() {
			exp, err = lab.ClientLatencyStudy(gc)
		}))
		if err != nil {
			return err
		}
		runMS += spans.timed("cassandra.run", func() { _, err = cassandra.Run(exp.Server.Config) })
		if err != nil {
			return err
		}
		var tr ycsb.Trace
		traceMS += spans.timed("ycsb.trace", func() {
			tr = ycsb.TransactionTrace(exp.Server, ycsb.TransactionConfig{
				ReadFraction: 0.5,
				OpsPerSec:    150,
				StartAfter:   exp.Server.ReplayDuration.Seconds(),
				Seed:         lab.Seed + 99,
			})
		})
		var read, update stats.BandReport
		bandsMS += spans.timed("stats.bands", func() {
			read, update = tr.Bands(ycsb.Read, 0.01), tr.Bands(ycsb.Update, 0.01)
		})
		if !reflect.DeepEqual(read, exp.Read) || !reflect.DeepEqual(update, exp.Update) {
			return fmt.Errorf("client study %s: re-run latency bands differ from the study's", gc)
		}
	}
	m.set("cassandra.run_ms", runMS)
	m.set("ycsb.trace_ms", traceMS)
	m.set("stats.bands_ms", bandsMS)
	return nil
}

// runtimeTotals are the bench process's cumulative Go runtime counters.
type runtimeTotals struct{ allocMB, gcCycles, gcCPU float64 }

func readRuntime() runtimeTotals {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	var t runtimeTotals
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		t.allocMB = float64(s[0].Value.Uint64()) / (1 << 20)
	}
	if s[1].Value.Kind() == rtmetrics.KindUint64 {
		t.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64 {
		t.gcCPU = s[2].Value.Float64()
	}
	return t
}

func (t runtimeTotals) sub(o runtimeTotals) runtimeTotals {
	return runtimeTotals{t.allocMB - o.allocMB, t.gcCycles - o.gcCycles, t.gcCPU - o.gcCPU}
}

func (t runtimeTotals) add(o runtimeTotals) runtimeTotals {
	return runtimeTotals{t.allocMB + o.allocMB, t.gcCycles + o.gcCycles, t.gcCPU + o.gcCPU}
}

// per divides the totals by a unit-of-work count.
func (t runtimeTotals) per(n float64) runtimeTotals {
	if n <= 0 {
		return runtimeTotals{}
	}
	return runtimeTotals{t.allocMB / n, t.gcCycles / n, t.gcCPU / n}
}

func (t runtimeTotals) setMetrics(m metrics) {
	m.set("goruntime.alloc_mb", t.allocMB)
	m.set("goruntime.gc_cycles", t.gcCycles)
	m.set("goruntime.gc_cpu_s", t.gcCPU)
}
