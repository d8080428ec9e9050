package ycsb

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/xrand"
)

// testServer runs a small server whose pauses the trace tests replay
// against.
func testServer(t *testing.T, collector string) cassandra.Result {
	t.Helper()
	cfg := cassandra.DefaultConfig(collector, 20*simtime.Minute)
	cfg.Heap = 16 * machine.GB
	cfg.Young = 3 * machine.GB
	cfg.WriteFraction = 0.5
	// Scale the offered load with the smaller heap so pauses stay rare
	// and short relative to wall time (as in the paper's client runs,
	// where ~99% of updates sit in the normal latency band and the
	// longest observed latency is sub-second).
	cfg.OpsPerSec = 400
	cfg.MemtableBudget = 2 * machine.GB
	cfg.RetentionFrac = 0.05
	cfg.PreloadBytes = 256 * machine.MB
	cfg.Seed = 9
	res, err := cassandra.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func txnCfg() TransactionConfig {
	return TransactionConfig{OpsPerSec: 200, Seed: 4}
}

func TestOpTypeString(t *testing.T) {
	if Read.String() != "READ" || Update.String() != "UPDATE" {
		t.Error("op names wrong")
	}
}

func TestTraceShape(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	horizon := srv.TotalDuration.Seconds()
	want := 200 * horizon
	if n := float64(len(tr.Ops)); math.Abs(n-want)/want > 0.05 {
		t.Errorf("ops = %v, want ~%v", n, want)
	}
	reads := len(tr.Samples(Read))
	updates := len(tr.Samples(Update))
	frac := float64(reads) / float64(reads+updates)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("read fraction = %v", frac)
	}
	for _, op := range tr.Ops[:100] {
		if op.LatencyMS <= 0 {
			t.Fatal("non-positive latency")
		}
		if op.Completed <= 0 || op.Completed > horizon+10 {
			t.Fatalf("completion %v outside horizon", op.Completed)
		}
	}
}

func TestShadowedOpsMatchPauses(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	if len(tr.Pauses) == 0 {
		t.Skip("server run produced no pauses")
	}
	shadowed := 0
	for _, op := range tr.Ops {
		if op.Shadowed {
			shadowed++
			// A shadowed op's latency must cover the pause remainder: at
			// least as large as a base service time.
			if op.LatencyMS < 0.3 {
				t.Fatalf("shadowed op with latency %v", op.LatencyMS)
			}
		}
	}
	if shadowed == 0 {
		t.Error("no operation overlapped any pause")
	}
	// The worst op should approach the longest pause.
	var maxLat float64
	for _, op := range tr.Ops {
		if op.LatencyMS > maxLat {
			maxLat = op.LatencyMS
		}
	}
	maxPause := srv.Log.MaxPause().Milliseconds()
	if maxLat < 0.5*maxPause {
		t.Errorf("max latency %vms << max pause %vms", maxLat, maxPause)
	}
}

func TestUpdateLatenciesFlatReadsStep(t *testing.T) {
	// The paper's Figure 5 observation: the update line is constant; the
	// read line rises in steps as the database grows.
	srv := testServer(t, "ParallelOld")
	tr := TransactionTrace(srv, txnCfg())
	horizon := srv.TotalDuration.Seconds()
	half := horizon / 2

	meanIn := func(typ OpType, lo, hi float64) float64 {
		sum, n := 0.0, 0
		for _, op := range tr.Ops {
			if op.Type != typ || op.Shadowed || op.Completed < lo || op.Completed > hi {
				continue
			}
			sum += op.LatencyMS
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	updEarly := meanIn(Update, 0, half)
	updLate := meanIn(Update, half, horizon)
	if math.Abs(updLate-updEarly)/updEarly > 0.05 {
		t.Errorf("update drifted: %v -> %v", updEarly, updLate)
	}
	readEarly := meanIn(Read, 0, half)
	readLate := meanIn(Read, half, horizon)
	if readLate < readEarly {
		t.Errorf("read latency did not grow: %v -> %v", readEarly, readLate)
	}
}

func TestReadStepFunction(t *testing.T) {
	base := 0.6
	if got := readStepMS(base, 1_000_000); got != base {
		t.Errorf("small DB stepped: %v", got)
	}
	if readStepMS(base, 5_000_000) <= base {
		t.Error("5M records did not step")
	}
	// Monotone in records.
	prev := 0.0
	for _, r := range []int64{1e6, 3e6, 8e6, 2e7, 1e8} {
		cur := readStepMS(base, r)
		if cur < prev {
			t.Fatalf("step decreased at %d records", r)
		}
		prev = cur
	}
	// Discrete: values within one octave are identical (steps, not slope).
	if readStepMS(base, 5_000_000) != readStepMS(base, 6_000_000) {
		t.Error("step function not flat within an octave")
	}
}

func TestBandsStructure(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	for _, typ := range []OpType{Read, Update} {
		rep := tr.Bands(typ, 0.001)
		if rep.N == 0 {
			t.Fatalf("%v: empty report", typ)
		}
		if rep.MinMS <= 0 || rep.AvgMS <= rep.MinMS || rep.MaxMS < rep.AvgMS {
			t.Errorf("%v: min/avg/max ordering: %v/%v/%v", typ, rep.MinMS, rep.AvgMS, rep.MaxMS)
		}
		if len(rep.Above) == 0 {
			t.Fatalf("%v: no exceedance bands", typ)
		}
		// Updates are tightly concentrated (paper: ~99%% in the normal
		// band).
		if typ == Update && rep.Normal.Reqs < 90 {
			t.Errorf("update normal band = %v%%", rep.Normal.Reqs)
		}
	}
}

func TestEveryGCVisibleInHighBands(t *testing.T) {
	// Paper: ">2x AVG (%GCs) = 100.0" — every pause coincides with at
	// least one slow request.
	srv := testServer(t, "CMS")
	cfg := txnCfg()
	cfg.OpsPerSec = 400 // dense arrivals so no pause goes unobserved
	tr := TransactionTrace(srv, cfg)
	rep := tr.Bands(Update, 0.001)
	if rep.Above[0].GCs < 95 {
		t.Errorf(">2x band GC coverage = %v%%, want ~100", rep.Above[0].GCs)
	}
	if rep.Normal.GCs > 5 {
		t.Errorf("normal band GC coverage = %v%%, want ~0", rep.Normal.GCs)
	}
}

func TestTopPoints(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	top := tr.TopPoints(1000)
	if len(top) != 1000 {
		t.Fatalf("top = %d", len(top))
	}
	// Every returned point is at least as slow as the overall median.
	med := tr.Bands(Update, 0.001).AvgMS / 2
	for _, op := range top {
		if op.LatencyMS < med {
			t.Fatalf("top point %v below half the update average", op.LatencyMS)
		}
	}
	if got := tr.TopPoints(0); got != nil {
		t.Error("TopPoints(0) != nil")
	}
	if got := tr.TopPoints(len(tr.Ops) + 10); len(got) != len(tr.Ops) {
		t.Error("TopPoints over-length mismatch")
	}
}

func TestDeterminism(t *testing.T) {
	srv := testServer(t, "G1")
	a := TransactionTrace(srv, txnCfg())
	b := TransactionTrace(srv, txnCfg())
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("op counts differ")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatal("ops differ")
		}
	}
}

func TestDescribe(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	if s := tr.Describe(); s == "" {
		t.Error("empty description")
	}
}

// generateSequential is the replay as it stood before the chunked
// pipeline: one operation at a time, each draw followed by its math. It
// is the oracle of the differential tests below.
func generateSequential(server cassandra.Result, cfg TransactionConfig, pauses []stats.Interval, visit func(op Op)) {
	rng := xrand.New(cfg.Seed).SplitLabeled("ycsb/txn/" + server.Config.CollectorName)
	zipf := xrand.NewZipf(rng.Split(), cfg.KeySpace, cfg.ZipfTheta)
	horizon := server.TotalDuration.Seconds()
	ctrRead := cfg.Recorder.CounterHandle("ycsb.ops.read")
	ctrUpdate := cfg.Recorder.CounterHandle("ycsb.ops.update")
	ctrShadowed := cfg.Recorder.CounterHandle("ycsb.ops.shadowed")
	pi := 0
	records := server.Records
	ri := 0
	readBase := readStepMS(cfg.ReadBaseMS, 0)
	t := cfg.StartAfter
	for {
		t += rng.Exp(1 / cfg.OpsPerSec)
		if t >= horizon {
			break
		}
		var op Op
		readFrac := cfg.ReadFraction
		if readFrac < 0 {
			readFrac = 0
		}
		if rng.Bool(readFrac) {
			op.Type = Read
			at, prev := simtime.Time(simtime.Seconds(t)), ri
			for ri < len(records) && records[ri].Time <= at {
				ri++
			}
			if ri != prev {
				readBase = readStepMS(cfg.ReadBaseMS, records[ri-1].Records)
			}
			base := readBase
			if zipf.Scrambled() < cfg.KeySpace/10 {
				base *= 0.85
			}
			op.LatencyMS = rng.LogNormal(math.Log(base), 0.18)
		} else {
			op.Type = Update
			op.LatencyMS = rng.LogNormal(math.Log(cfg.UpdateBaseMS), 0.12)
		}
		for pi < len(pauses) && pauses[pi].End <= t {
			pi++
		}
		if pi < len(pauses) && t >= pauses[pi].Start && t < pauses[pi].End {
			op.LatencyMS += (pauses[pi].End - t) * 1e3
			op.Shadowed = true
		}
		op.Completed = t + op.LatencyMS/1e3
		visit(op)
		if cfg.Recorder != nil {
			if op.Type == Read {
				ctrRead.Add(1)
			} else {
				ctrUpdate.Add(1)
			}
			if op.Shadowed {
				ctrShadowed.Add(1)
				cfg.Recorder.Span(telemetry.TrackClient, op.Type.String(),
					simtime.Time(simtime.Seconds(t)),
					simtime.Seconds(op.LatencyMS/1e3), 0,
					telemetry.Num("latency_ms", op.LatencyMS),
				)
			}
		}
	}
}

// replayOutcome is everything one replay produces: the exact trace, the
// streamed statistics, and the telemetry each of them recorded.
type replayOutcome struct {
	trace                   Trace
	stream                  StreamTrace
	traceSpans, streamSpans []telemetry.Span
	traceCtrs, streamCtrs   []telemetry.Counter
}

func replayWith(srv cassandra.Result, cfg TransactionConfig, replay replayFunc) replayOutcome {
	var out replayOutcome
	rec := telemetry.New(telemetry.Config{})
	cfg.Recorder = rec
	out.trace = transactionTrace(srv, cfg, replay)
	out.traceSpans, out.traceCtrs = rec.Spans(), rec.Counters()
	rec = telemetry.New(telemetry.Config{})
	cfg.Recorder = rec
	out.stream = transactionStream(srv, cfg, 0.01, 500, replay)
	out.streamSpans, out.streamCtrs = rec.Spans(), rec.Counters()
	return out
}

// diffReplay reports the first way got differs from want.
func diffReplay(want, got replayOutcome) string {
	switch {
	case len(got.trace.Ops) != len(want.trace.Ops):
		return fmt.Sprintf("%d ops, oracle %d", len(got.trace.Ops), len(want.trace.Ops))
	case !reflect.DeepEqual(got.trace.Ops, want.trace.Ops):
		for i := range want.trace.Ops {
			if got.trace.Ops[i] != want.trace.Ops[i] {
				return fmt.Sprintf("op %d = %+v, oracle %+v", i, got.trace.Ops[i], want.trace.Ops[i])
			}
		}
	case !reflect.DeepEqual(got.trace.Pauses, want.trace.Pauses):
		return "trace pauses differ"
	case !reflect.DeepEqual(got.stream, want.stream):
		return "streamed statistics differ"
	case !reflect.DeepEqual(got.traceSpans, want.traceSpans) || !reflect.DeepEqual(got.streamSpans, want.streamSpans):
		return "client spans differ"
	case !reflect.DeepEqual(got.traceCtrs, want.traceCtrs) || !reflect.DeepEqual(got.streamCtrs, want.streamCtrs):
		return fmt.Sprintf("counters %v, oracle %v", got.traceCtrs, want.traceCtrs)
	}
	return ""
}

// replayWorkers are the worker counts the differential tests cover: the
// inline path, an even and an uneven split, and more workers than CPUs.
var replayWorkers = []int{1, 2, 3, 8}

// grownServer scales srv's database-size curve 40-fold, so the replay
// crosses the 2M, 4M and 8M-record read steps (the small test servers
// stay below the first).
func grownServer(t *testing.T, srv cassandra.Result) cassandra.Result {
	t.Helper()
	grown := make([]cassandra.RecordPoint, len(srv.Records))
	for i, r := range srv.Records {
		grown[i] = cassandra.RecordPoint{Time: r.Time, Records: 40 * r.Records}
	}
	if n := len(grown); n == 0 || grown[n-1].Records <= 8_000_000 {
		t.Fatalf("grown curve does not pass the 8M-record read step")
	}
	srv.Records = grown
	return srv
}

func TestReplayMatchesSequential(t *testing.T) {
	// 15 ops/s keeps the matrix cheap under -race while the 20-minute
	// servers still put pauses in every replay.
	const rate = 15
	workloadF, err := WorkloadF.Config(TransactionConfig{OpsPerSec: rate, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	workloadC, err := WorkloadC.Config(TransactionConfig{OpsPerSec: rate, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []struct {
		name string
		cfg  TransactionConfig
	}{
		{"seed4", TransactionConfig{OpsPerSec: rate, Seed: 4}},
		{"seed42", TransactionConfig{OpsPerSec: rate, Seed: 42}},
		// Clients connecting late, onto a database past its first read
		// step.
		{"seed7-late", TransactionConfig{OpsPerSec: rate, Seed: 7, StartAfter: 500}},
		{"update-only", workloadF},
		{"read-only", workloadC},
	}
	for _, gc := range []string{"CMS", "G1", "ParallelOld"} {
		srv := grownServer(t, testServer(t, gc))
		for _, c := range cfgs {
			want := replayWith(srv, c.cfg, generateSequential)
			if len(want.traceSpans) == 0 {
				t.Fatalf("%s %s: the oracle recorded no shadow spans, so they go untested", gc, c.name)
			}
			for _, w := range replayWorkers {
				cfg := c.cfg
				cfg.Workers = w
				if d := diffReplay(want, replayWith(srv, cfg, generate)); d != "" {
					t.Errorf("%s %s workers=%d: %s", gc, c.name, w, d)
				}
			}
		}
	}
}

func TestReplayHorizonAtChunkEdges(t *testing.T) {
	// Shrink the chunk so the horizon stop lands on, just before and just
	// after a chunk edge, and on every edge at once (chunk of 1).
	defer func(c int) { chunkOps = c }(chunkOps)
	srv := testServer(t, "G1")
	// A short horizon keeps the tiny-chunk cases cheap.
	srv.TotalDuration = simtime.Seconds(40)
	cfg := TransactionConfig{OpsPerSec: 50, Seed: 3}
	want := replayWith(srv, cfg, generateSequential)
	n := len(want.trace.Ops) // the operation the horizon stops is index n
	if n < 100 {
		t.Fatalf("only %d ops before the horizon", n)
	}
	chunks := []int{1, 2, 3, n - 1, n, n + 1, n + 2, 2 * n}
	// Chunks that divide n put the stop first in a chunk; chunks that
	// divide n+1 put it last.
	for _, target := range []int{n, n + 1} {
		for c := 4; c < n/2; c++ {
			if target%c == 0 {
				chunks = append(chunks, c)
				break
			}
		}
	}
	for _, c := range chunks {
		chunkOps = c
		for _, w := range replayWorkers {
			cfg.Workers = w
			if d := diffReplay(want, replayWith(srv, cfg, generate)); d != "" {
				t.Errorf("chunk=%d (stop at %d%%%d=%d) workers=%d: %s", c, n, c, n%c, w, d)
			}
		}
	}
}

// BenchmarkTransactionTrace replays one collector's §4.2 transactions
// phase (two simulated hours at 150 ops/s, about a million operations)
// against one fixed server run, on the calling goroutine alone and
// spread over two workers.
func BenchmarkTransactionTrace(b *testing.B) {
	cfg := cassandra.DefaultConfig("ParallelOld", 2*simtime.Hour)
	cfg.WriteFraction = 0.5
	cfg.HeapPerRecord = 150
	cfg.TransientPerOp = 10 * machine.KB
	cfg.RetentionFrac = 0.10
	cfg.PreloadBytes = 4 * machine.GB
	cfg.Seed = 42
	srv, err := cassandra.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tcfg := TransactionConfig{ReadFraction: 0.5, OpsPerSec: 150,
				StartAfter: srv.ReplayDuration.Seconds(), Seed: 141, Workers: workers}
			b.ReportAllocs()
			var ops int
			for i := 0; i < b.N; i++ {
				ops = len(TransactionTrace(srv, tcfg).Ops)
			}
			b.ReportMetric(float64(ops), "ops")
		})
	}
}
