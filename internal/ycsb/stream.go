package ycsb

import (
	"fmt"
	"sort"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/hdrhist"
	"jvmgc/internal/stats"
)

// StreamTrace is the bounded-memory counterpart of Trace: the same
// transactions phase — identical random sequence, identical telemetry —
// consumed online instead of materialized. Per-type latency
// distributions live in log-bucketed histograms, the band statistics in
// streaming accumulators, and only a fixed-size reservoir of the
// highest-latency operations (the points the paper actually plots in
// Figure 5) is retained. A full client run holds O(histogram buckets +
// pauses + TopK) memory regardless of operation count.
type StreamTrace struct {
	Pauses []stats.Interval
	// Read and Update are the per-type band statistics (Tables 5–7).
	Read, Update stats.BandReport
	// ReadHist and UpdateHist are the per-type latency histograms
	// (milliseconds), for percentile reporting beyond the band table.
	ReadHist, UpdateHist *hdrhist.Hist
	// Reads, Updates and Shadowed count operations by type and
	// pause-shadow status.
	Reads, Updates, Shadowed int
	top                      topReservoir
}

// TransactionStream replays a transactions phase like TransactionTrace
// but folds every operation into streaming statistics as it is
// generated. minReqPct bounds the exceedance bands exactly as in
// Trace.Bands; topK sizes the high-latency reservoir backing TopPoints
// (0 keeps none).
func TransactionStream(server cassandra.Result, cfg TransactionConfig, minReqPct float64, topK int) StreamTrace {
	return transactionStream(server, cfg, minReqPct, topK, generate)
}

func transactionStream(server cassandra.Result, cfg TransactionConfig, minReqPct float64, topK int, replay replayFunc) StreamTrace {
	cfg = cfg.withDefaults()
	pauses := clientPauses(server, cfg.StartAfter)
	readAcc := stats.NewBandAccumulator(pauses, minReqPct)
	updateAcc := stats.NewBandAccumulator(pauses, minReqPct)
	st := StreamTrace{Pauses: pauses, top: newTopReservoir(topK)}
	replay(server, cfg, pauses, func(op Op) {
		s := stats.LatencySample{Completed: op.Completed, LatencyMS: op.LatencyMS}
		if op.Type == Read {
			st.Reads++
			readAcc.Add(s)
		} else {
			st.Updates++
			updateAcc.Add(s)
		}
		if op.Shadowed {
			st.Shadowed++
		}
		st.top.add(op)
	})
	st.Read = readAcc.Report()
	st.Update = updateAcc.Report()
	st.ReadHist = readAcc.Hist()
	st.UpdateHist = updateAcc.Hist()
	return st
}

// TopPoints returns the n highest-latency operations retained by the
// reservoir (at most the configured TopK), in completion order like
// Trace.TopPoints.
func (st StreamTrace) TopPoints(n int) []Op {
	if n <= 0 {
		return nil
	}
	ops := append([]Op(nil), st.top.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].LatencyMS > ops[j].LatencyMS })
	if n < len(ops) {
		ops = ops[:n]
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Completed < ops[j].Completed })
	return ops
}

// Describe summarizes the streamed phase, mirroring Trace.Describe.
func (st StreamTrace) Describe() string {
	return fmt.Sprintf("%d ops (%d reads, %d updates), %d shadowed by %d pauses",
		st.Reads+st.Updates, st.Reads, st.Updates, st.Shadowed, len(st.Pauses))
}

// topReservoir keeps the k highest-latency operations seen so far: a
// fixed-capacity min-heap on latency, so the steady-state insert is one
// comparison against the current minimum and never allocates.
type topReservoir struct {
	k   int
	ops []Op
}

func newTopReservoir(k int) topReservoir {
	if k <= 0 {
		return topReservoir{}
	}
	return topReservoir{k: k, ops: make([]Op, 0, k)}
}

func (r *topReservoir) add(op Op) {
	if r.k <= 0 {
		return
	}
	if len(r.ops) < r.k {
		r.ops = append(r.ops, op)
		r.siftUp(len(r.ops) - 1)
		return
	}
	if op.LatencyMS <= r.ops[0].LatencyMS {
		return
	}
	r.ops[0] = op
	r.siftDown(0)
}

func (r *topReservoir) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if r.ops[parent].LatencyMS <= r.ops[i].LatencyMS {
			return
		}
		r.ops[parent], r.ops[i] = r.ops[i], r.ops[parent]
		i = parent
	}
}

func (r *topReservoir) siftDown(i int) {
	n := len(r.ops)
	for {
		least := i
		if l := 2*i + 1; l < n && r.ops[l].LatencyMS < r.ops[least].LatencyMS {
			least = l
		}
		if rr := 2*i + 2; rr < n && r.ops[rr].LatencyMS < r.ops[least].LatencyMS {
			least = rr
		}
		if least == i {
			return
		}
		r.ops[i], r.ops[least] = r.ops[least], r.ops[i]
		i = least
	}
}
