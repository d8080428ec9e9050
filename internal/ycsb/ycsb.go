// Package ycsb models the Yahoo! Cloud Serving Benchmark client the paper
// drives Cassandra with (§2.2, §4.2): a workload generator with a loading
// phase and a transactions phase, zipfian key popularity, and per-operation
// latency capture.
//
// The transactions phase is reconstructed as an open-loop arrival process
// against the simulated server's timeline: every operation pays a service
// time (updates flat, reads stepping up as the database grows) and, when
// it lands inside a stop-the-world pause, absorbs the pause's remainder —
// the "pause shadow" that produces the latency spikes of Figure 5 and the
// band statistics of Tables 5–7.
package ycsb

import (
	"fmt"
	"math"
	"sync"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/xrand"
)

// OpType distinguishes the workload's operations.
type OpType int

// Operation types of the paper's custom workload (50% read, 50% update).
const (
	Read OpType = iota
	Update
)

// String returns the YCSB operation name.
func (t OpType) String() string {
	if t == Read {
		return "READ"
	}
	return "UPDATE"
}

// Op is one completed client operation.
type Op struct {
	Type OpType
	// Completed is the completion instant in seconds since experiment
	// start.
	Completed float64
	// LatencyMS is the observed latency in milliseconds.
	LatencyMS float64
	// Shadowed marks operations that overlapped a GC pause.
	Shadowed bool
}

// TransactionConfig parameterizes the transactions phase.
type TransactionConfig struct {
	// ReadFraction is the share of reads (paper: 0.5). Zero selects the
	// default 0.5; a negative value means update-only (explicit zero).
	ReadFraction float64
	// OpsPerSec is the mean arrival rate. The paper's runs collected over
	// a million points in ~8000 s (~150/s).
	OpsPerSec float64
	// KeySpace and ZipfTheta shape key popularity (YCSB defaults).
	KeySpace  uint64
	ZipfTheta float64
	// ReadBaseMS and UpdateBaseMS are the base service times on an empty
	// database.
	ReadBaseMS   float64
	UpdateBaseMS float64
	// StartAfter delays the first arrival (seconds): clients cannot
	// connect while the server replays its commitlog.
	StartAfter float64
	// Recorder, when non-nil, receives client-side telemetry: operation
	// counters and one client-track span per pause-shadowed operation
	// (the latency spikes of Figure 5, visible next to the GC spans that
	// caused them). Nil disables all telemetry at zero cost.
	Recorder *telemetry.Recorder
	Seed     uint64
	// Workers bounds the goroutines the replay spreads its random-number
	// math over, the calling goroutine included; values below 2 replay
	// on the calling goroutine alone. The trace, the telemetry and every
	// statistic are byte-identical at any setting.
	Workers int
}

func (c TransactionConfig) withDefaults() TransactionConfig {
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.ReadFraction < 0 {
		c.ReadFraction = -1 // normalized update-only marker
	}
	if c.OpsPerSec <= 0 {
		c.OpsPerSec = 150
	}
	if c.KeySpace == 0 {
		c.KeySpace = 10_000_000
	}
	if c.ZipfTheta <= 0 {
		c.ZipfTheta = 0.99
	}
	if c.ReadBaseMS <= 0 {
		c.ReadBaseMS = 0.62
	}
	if c.UpdateBaseMS <= 0 {
		c.UpdateBaseMS = 0.92
	}
	return c
}

// Trace is the transactions phase's completed-operation log plus the
// pause intervals it ran against.
type Trace struct {
	Ops    []Op
	Pauses []stats.Interval
}

// readStepMS returns the read service time's growth with database size:
// every doubling of the record count beyond two million adds a step
// (more SSTables and index levels to consult). This is the mechanism
// behind the "increasing steps" of the READ line in Figure 5.
func readStepMS(base float64, records int64) float64 {
	if records <= 2_000_000 {
		return base
	}
	steps := math.Floor(math.Log2(float64(records) / 2_000_000))
	return base * (1 + 0.45*steps)
}

// clientPauses extracts the pause intervals visible to the client:
// pauses that ended before it connected (commitlog replay) are
// invisible and excluded.
func clientPauses(server cassandra.Result, startAfter float64) []stats.Interval {
	var pauses []stats.Interval
	for _, e := range server.Log.Pauses() {
		if e.End().Seconds() <= startAfter {
			continue
		}
		pauses = append(pauses, stats.Interval{
			Start: e.Start.Seconds(),
			End:   e.End().Seconds(),
		})
	}
	return pauses
}

// chunkOps is the replay pipeline's chunk length: how many operations
// move through it as one unit. Tests shrink it to land the horizon on
// chunk edges.
var chunkOps = 1024

// slot is one operation's state in the replay pipeline. A field holds a
// uniform until the phase that consumes it overwrites it with the value
// it maps to.
type slot struct {
	// exp is the inter-arrival uniform, then its Exp(1) deviate.
	exp float64
	// polarU and polarS are the accepted polar pair; polarU then holds
	// the standard normal deviate.
	polarU, polarS float64
	// key is a read's zipfian uniform.
	key float64
	// at is the arrival instant.
	at float64
	// lat is the log-normal location, then the service latency (ms).
	lat float64
	// read marks a read (else an update), hot a read of a key the row
	// cache serves.
	read, hot bool
}

// chunk is one pipeline buffer.
type chunk struct {
	slots []slot
	// n is the number of slots that arrived before the horizon.
	n int
	// ready carries one signal per finished helper phase (nil without
	// helpers).
	ready chan struct{}
}

// job is one helper phase of one chunk: phase (b) or, with latencies
// set, phase (d).
type job struct {
	c         *chunk
	latencies bool
}

// replay is one transactions phase in flight. The helpers read only
// zipf and hotKeys; every other field belongs to the calling goroutine.
type replay struct {
	cfg     TransactionConfig
	rng     *xrand.Rand
	keys    *xrand.Rand
	zipf    *xrand.Zipf
	hotKeys uint64
	// readFrac is cfg.ReadFraction with update-only mapped to 0.
	readFrac float64
	// t is the arrival clock, mean the mean inter-arrival time.
	t, mean, horizon float64
	// Arrivals only move forward, so the database-size curve is walked
	// with a cursor (server.RecordsAt's step function, read in order),
	// and the read service time's logs are recomputed only when the
	// record count under the cursor changes.
	records                    []cassandra.RecordPoint
	ri                         int
	logRead, logHot, logUpdate float64
	pauses                     []stats.Interval
	pi                         int
	visit                      func(op Op)
	ctrRead                    *telemetry.CounterHandle
	ctrUpdate                  *telemetry.CounterHandle
	ctrShadowed                *telemetry.CounterHandle
	// jobs queues helper phases; nil replays on the calling goroutine.
	jobs chan job
}

// generate is the transactions-phase arrival process shared by the
// exact and streaming consumers: it draws the identical random
// sequence either way — same rng labels, same draw order — and hands
// each completed operation to visit in ascending arrival (service
// start) order. Telemetry emission lives here too, so both modes
// produce the same counters and shadow spans.
//
// The replay moves through a pipeline in chunks of chunkOps
// operations, five phases each. Only the calling goroutine runs the
// sequential phases, in chunk order; they alone touch the random
// streams, the clocks and the consumers, so the output is
// byte-identical at any cfg.Workers:
//
//	(a) sequential: draw every uniform in the historical stream order
//	(b) helpers:    -Log of the arrival uniform, the polar-method normal,
//	    and a read's zipfian key, reduced to its row-cache-hot bit
//	(c) sequential: advance the arrival clock, stop at the horizon, walk
//	    the record curve and pick each operation's log-normal location
//	(d) helpers:    the latency Exp(mu + sigma*n)
//	(e) sequential: pause shadow, completion, visit, telemetry
//
// With Workers > 1, cfg.Workers-1 helper goroutines take phases (b) and
// (d) from a queue while the caller draws ahead, and the caller runs
// queued phases itself rather than block on one. Chunks, not per-phase
// barriers, are the unit of hand-off: waking a parked helper can cost a
// few hundred microseconds, more than one phase of a small chunk.
//
// The caller draws chunks ahead of the horizon, so the streams run past
// it; both are private to the replay, so nothing observes the surplus.
func generate(server cassandra.Result, cfg TransactionConfig, pauses []stats.Interval, visit func(op Op)) {
	rng := xrand.New(cfg.Seed).SplitLabeled("ycsb/txn/" + server.Config.CollectorName)
	keys := rng.Split()
	readBase := readStepMS(cfg.ReadBaseMS, 0)
	r := &replay{
		cfg:       cfg,
		rng:       rng,
		keys:      keys,
		zipf:      xrand.NewZipf(keys, cfg.KeySpace, cfg.ZipfTheta),
		hotKeys:   cfg.KeySpace / 10,
		readFrac:  max(cfg.ReadFraction, 0),
		t:         cfg.StartAfter,
		mean:      1 / cfg.OpsPerSec,
		horizon:   server.TotalDuration.Seconds(),
		records:   server.Records,
		logRead:   math.Log(readBase),
		logHot:    math.Log(readBase * 0.85),
		logUpdate: math.Log(cfg.UpdateBaseMS),
		pauses:    pauses,
		visit:     visit,
	}
	r.ctrRead = cfg.Recorder.CounterHandle("ycsb.ops.read")
	r.ctrUpdate = cfg.Recorder.CounterHandle("ycsb.ops.update")
	r.ctrShadowed = cfg.Recorder.CounterHandle("ycsb.ops.shadowed")

	// The caller keeps ahead chunks drawn, counting the one it clocks,
	// and one more waits for its fold. Without helpers nothing runs
	// ahead, so one chunk suffices.
	workers := max(cfg.Workers, 1)
	ahead := 2*workers - 1
	ring := make([]chunk, ahead+1)
	slots := make([]slot, len(ring)*chunkOps)
	for i := range ring {
		ring[i].slots = slots[i*chunkOps : (i+1)*chunkOps]
	}
	if workers > 1 {
		for i := range ring {
			ring[i].ready = make(chan struct{}, 1)
		}
		// At most one phase per chunk is outstanding, so submit never
		// blocks.
		r.jobs = make(chan job, len(ring))
		var helpers sync.WaitGroup
		helpers.Add(workers - 1)
		for range workers - 1 {
			go func() {
				defer helpers.Done()
				for j := range r.jobs {
					r.run(j)
				}
			}()
		}
		// The helpers finish the phases still queued for chunks drawn
		// past the horizon and exit before the replay returns, so none
		// outlives it and the next replay can reuse their goroutines.
		defer helpers.Wait()
		defer close(r.jobs)
	}

	drawn, stopped := 0, false
	for i := 0; ; i++ {
		for ; !stopped && drawn < i+ahead; drawn++ {
			c := &ring[drawn%len(ring)]
			r.draw(c)
			r.submit(job{c: c})
		}
		c := &ring[i%len(ring)]
		r.await(c)
		stopped = r.clock(c)
		r.submit(job{c: c, latencies: true})
		if i > 0 {
			prev := &ring[(i-1)%len(ring)]
			r.await(prev)
			r.fold(prev)
		}
		if stopped {
			r.await(c)
			r.fold(c)
			return
		}
	}
}

// submit queues a helper phase, or runs it at once without helpers.
func (r *replay) submit(j job) {
	if r.jobs == nil {
		r.run(j)
		return
	}
	r.jobs <- j
}

// await returns once c's outstanding helper phase has finished. While
// it has not, the caller runs queued phases itself (c's own included)
// and blocks only when helpers hold all of them.
func (r *replay) await(c *chunk) {
	if r.jobs == nil {
		return // submit ran the phase
	}
	for {
		select {
		case <-c.ready:
			return
		default:
		}
		select {
		case <-c.ready:
			return
		case j := <-r.jobs:
			r.run(j)
		}
	}
}

// run executes one helper phase and signals its chunk.
func (r *replay) run(j job) {
	if j.latencies {
		latencies(j.c.slots[:j.c.n])
	} else {
		r.deviates(j.c.slots)
	}
	if j.c.ready != nil {
		j.c.ready <- struct{}{}
	}
}

// draw is phase (a): the chunk's uniforms, in the order the sequential
// replay drew them — the arrival gap (Exp's u > 0 retry), the
// read/update coin, a read's key from the zipfian's own stream, and the
// log-normal's accepted polar pair.
func (r *replay) draw(c *chunk) {
	for i := range c.slots {
		s := &c.slots[i]
		s.exp = r.rng.PositiveFloat64()
		s.read = r.rng.Bool(r.readFrac)
		if s.read {
			s.key = r.keys.Float64()
		}
		s.polarU, s.polarS = r.rng.PolarPair()
	}
}

// deviates is phase (b).
func (r *replay) deviates(slots []slot) {
	for i := range slots {
		s := &slots[i]
		s.exp = -math.Log(s.exp)
		s.polarU = xrand.PolarNormal(s.polarU, s.polarS)
		// Hot keys are served from the row cache faster.
		s.hot = s.read && r.zipf.Scramble(r.zipf.At(s.key)) < r.hotKeys
	}
}

// clock is phase (c). It sets c.n and reports whether the horizon fell
// inside the chunk.
func (r *replay) clock(c *chunk) (stopped bool) {
	c.n = len(c.slots)
	for i := range c.slots {
		s := &c.slots[i]
		r.t += r.mean * s.exp
		if r.t >= r.horizon {
			c.n = i
			return true
		}
		s.at = r.t
		if !s.read {
			s.lat = r.logUpdate
			continue
		}
		at, prev := simtime.Time(simtime.Seconds(r.t)), r.ri
		for r.ri < len(r.records) && r.records[r.ri].Time <= at {
			r.ri++
		}
		if r.ri != prev {
			readBase := readStepMS(r.cfg.ReadBaseMS, r.records[r.ri-1].Records)
			r.logRead, r.logHot = math.Log(readBase), math.Log(readBase*0.85)
		}
		s.lat = r.logRead
		if s.hot {
			s.lat = r.logHot
		}
	}
	return false
}

// latencies is phase (d).
func latencies(slots []slot) {
	for i := range slots {
		s := &slots[i]
		sigma := 0.12
		if s.read {
			sigma = 0.18
		}
		s.lat = math.Exp(s.lat + sigma*s.polarU)
	}
}

// fold is phase (e): the chunk's operations, in arrival order, to the
// consumer and the telemetry.
func (r *replay) fold(c *chunk) {
	rec := r.cfg.Recorder
	for i := range c.slots[:c.n] {
		s := &c.slots[i]
		op := Op{Type: Update, LatencyMS: s.lat}
		if s.read {
			op.Type = Read
		}
		for r.pi < len(r.pauses) && r.pauses[r.pi].End <= s.at {
			r.pi++
		}
		if p := r.pi; p < len(r.pauses) && s.at >= r.pauses[p].Start && s.at < r.pauses[p].End {
			op.LatencyMS += (r.pauses[p].End - s.at) * 1e3
			op.Shadowed = true
		}
		op.Completed = s.at + op.LatencyMS/1e3
		r.visit(op)
		if rec != nil {
			if op.Type == Read {
				r.ctrRead.Add(1)
			} else {
				r.ctrUpdate.Add(1)
			}
			if op.Shadowed {
				r.ctrShadowed.Add(1)
				rec.Span(telemetry.TrackClient, op.Type.String(),
					simtime.Time(simtime.Seconds(s.at)),
					simtime.Seconds(op.LatencyMS/1e3), 0,
					telemetry.Num("latency_ms", op.LatencyMS),
				)
			}
		}
	}
}

// TransactionTrace replays a transactions phase against a finished server
// run and returns the per-operation latency trace.
func TransactionTrace(server cassandra.Result, cfg TransactionConfig) Trace {
	return transactionTrace(server, cfg, generate)
}

// replayFunc is generate's signature; the differential tests pass the
// sequential replay it replaced.
type replayFunc func(server cassandra.Result, cfg TransactionConfig, pauses []stats.Interval, visit func(op Op))

func transactionTrace(server cassandra.Result, cfg TransactionConfig, replay replayFunc) Trace {
	cfg = cfg.withDefaults()
	pauses := clientPauses(server, cfg.StartAfter)
	horizon := server.TotalDuration.Seconds()
	var tr Trace
	tr.Pauses = pauses
	if horizon > cfg.StartAfter && cfg.OpsPerSec > 0 {
		// Size the op log for the expected arrival count up front; the
		// Poisson spread around the mean is a few percent at these volumes.
		expect := int((horizon - cfg.StartAfter) * cfg.OpsPerSec)
		tr.Ops = make([]Op, 0, expect+expect/16+16)
	}
	replay(server, cfg, pauses, func(op Op) { tr.Ops = append(tr.Ops, op) })
	return tr
}

// Samples extracts the latency samples of one operation type.
func (tr Trace) Samples(t OpType) []stats.LatencySample {
	n := 0
	for _, op := range tr.Ops {
		if op.Type == t {
			n++
		}
	}
	out := make([]stats.LatencySample, 0, n)
	for _, op := range tr.Ops {
		if op.Type == t {
			out = append(out, stats.LatencySample{Completed: op.Completed, LatencyMS: op.LatencyMS})
		}
	}
	return out
}

// Bands computes the paper's Tables 5–7 statistics block for one
// operation type. Bands extend until the request share drops below
// minReqPct (the paper extends n "until the percentage of points became
// too close to 0").
func (tr Trace) Bands(t OpType, minReqPct float64) stats.BandReport {
	return stats.AnalyzeBands(tr.Samples(t), tr.Pauses, minReqPct)
}

// TopPoints returns the n highest-latency operations (the paper plots
// only the highest 10000 points of each chart for readability).
func (tr Trace) TopPoints(n int) []Op {
	if n <= 0 || len(tr.Ops) == 0 {
		return nil
	}
	// Selection via a simple threshold pass keeps the common case (n >=
	// len) trivial.
	if n >= len(tr.Ops) {
		out := make([]Op, len(tr.Ops))
		copy(out, tr.Ops)
		return out
	}
	lat := make([]float64, len(tr.Ops))
	for i, op := range tr.Ops {
		lat[i] = op.LatencyMS
	}
	thresh, err := stats.Percentile(lat, 100*(1-float64(n)/float64(len(tr.Ops))))
	if err != nil {
		return nil
	}
	var out []Op
	for _, op := range tr.Ops {
		if op.LatencyMS >= thresh && len(out) < n {
			out = append(out, op)
		}
	}
	return out
}

// Describe summarizes the trace.
func (tr Trace) Describe() string {
	reads, updates, shadowed := 0, 0, 0
	for _, op := range tr.Ops {
		if op.Type == Read {
			reads++
		} else {
			updates++
		}
		if op.Shadowed {
			shadowed++
		}
	}
	return fmt.Sprintf("%d ops (%d reads, %d updates), %d shadowed by %d pauses",
		len(tr.Ops), reads, updates, shadowed, len(tr.Pauses))
}
