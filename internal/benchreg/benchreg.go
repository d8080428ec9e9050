// Package benchreg parses, stores, and compares Go benchmark results so
// the repository can keep a committed performance baseline and fail CI
// when the simulation kernel regresses.
//
// The workflow has three parts: Parse reads the text `go test -bench`
// emits, Report round-trips as JSON (the committed BENCH_baseline.json
// and the per-PR BENCH_<n>.json artifacts), and Compare evaluates a
// current report against the baseline with noise-tolerant thresholds —
// wall-clock time gets a generous ratio (benchmarks share CI machines
// with other work), while allocs/op is exact because the kernel's
// allocation behaviour is deterministic and any increase is a real leak
// back onto the hot path.
package benchreg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements.
type Result struct {
	// Name is the benchmark name with any -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at: the stripped suffix,
	// or 1 when `go test` printed none. Allocation counts depend on it
	// (a parallel runner allocates per worker), so Compare gates only
	// results taken at the same setting. Zero means unrecorded and
	// matches any setting.
	Procs int `json:"procs,omitempty"`
	// N is the iteration count of the (fastest) kept run.
	N int64 `json:"n"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when the benchmark ran with
	// -benchmem or calls b.ReportAllocs; HasMem records that.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	HasMem      bool    `json:"has_mem,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "wins-pct").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is a set of benchmark results, sorted by name.
type Report struct {
	Benchmarks []Result `json:"benchmarks"`
}

// lookupProcs returns the named result measured at procs, where a zero
// Procs on either side matches any setting.
func (r Report) lookupProcs(name string, procs int) (Result, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name && (b.Procs == procs || b.Procs == 0 || procs == 0) {
			return b, true
		}
	}
	return Result{}, false
}

// Lookup returns the named result and whether it exists.
func (r Report) Lookup(name string) (Result, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Result{}, false
}

// gomaxprocsSuffix matches the "-8" tail `go test` appends to benchmark
// names run at GOMAXPROCS other than 1.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// Parse reads `go test -bench` text output. Lines that are not benchmark
// results (package headers, PASS/ok, log noise) are skipped. Repeated
// runs of the same benchmark at the same GOMAXPROCS (-count > 1) are
// merged: ns/op, B/op, and allocs/op keep their minimum across runs — the
// least-noise observation — and custom metrics keep the value from the
// fastest run. Runs at different GOMAXPROCS (-cpu 1,2) stay separate.
func Parse(r io.Reader) (Report, error) {
	type key struct {
		name  string
		procs int
	}
	var rep Report
	idx := map[key]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok, err := parseLine(line)
		if err != nil {
			return Report{}, err
		}
		if !ok {
			continue
		}
		k := key{res.Name, res.Procs}
		if i, seen := idx[k]; seen {
			rep.Benchmarks[i] = merge(rep.Benchmarks[i], res)
		} else {
			idx[k] = len(rep.Benchmarks)
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		a, b := rep.Benchmarks[i], rep.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Procs < b.Procs
	})
	return rep, nil
}

// parseLine parses one "BenchmarkName-8  N  12.3 ns/op  ..." line. The
// second return is false for lines that start with "Benchmark" but are
// not results (e.g. a benchmark name echoed alone by -v).
func parseLine(line string) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false, nil
	}
	res := Result{Name: f[0], Procs: 1}
	if m := gomaxprocsSuffix.FindStringSubmatchIndex(f[0]); m != nil {
		res.Name = f[0][:m[0]]
		res.Procs, _ = strconv.Atoi(f[0][m[2]:m[3]])
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false, nil
	}
	res.N = n
	// The remainder is value/unit pairs.
	if (len(f)-2)%2 != 0 {
		return Result{}, false, fmt.Errorf("benchreg: odd value/unit tail in %q", line)
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("benchreg: bad value %q in %q", f[i], line)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
			res.HasMem = true
		case "allocs/op":
			res.AllocsPerOp = v
			res.HasMem = true
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	if res.NsPerOp == 0 && res.Metrics == nil && !res.HasMem {
		return Result{}, false, nil
	}
	return res, true, nil
}

// merge folds a repeated run into an existing result, keeping the
// minimum per standard metric.
func merge(a, b Result) Result {
	if b.NsPerOp < a.NsPerOp {
		a.NsPerOp = b.NsPerOp
		a.N = b.N
		if b.Metrics != nil {
			a.Metrics = b.Metrics
		}
	}
	if b.HasMem {
		if !a.HasMem || b.BytesPerOp < a.BytesPerOp {
			a.BytesPerOp = b.BytesPerOp
		}
		if !a.HasMem || b.AllocsPerOp < a.AllocsPerOp {
			a.AllocsPerOp = b.AllocsPerOp
		}
		a.HasMem = true
	}
	return a
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON reads a report written by WriteJSON.
func ReadJSON(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("benchreg: decoding report: %w", err)
	}
	return rep, nil
}

// Thresholds configures Compare's tolerance.
type Thresholds struct {
	// MaxNsRatio is the highest tolerated current/baseline ns/op ratio;
	// zero selects DefaultMaxNsRatio.
	MaxNsRatio float64
	// AllocSlack is the tolerated fractional allocs/op increase. The
	// default zero means any increase regresses: the kernel's allocation
	// counts are deterministic, so there is no noise to absorb.
	AllocSlack float64
}

// DefaultMaxNsRatio tolerates 25% wall-clock noise between runs.
const DefaultMaxNsRatio = 1.25

// Delta is one benchmark's baseline-vs-current evaluation.
type Delta struct {
	Name      string
	Metric    string // "ns/op", "allocs/op", "missing", or "procs"
	Base, Cur float64
	Ratio     float64
	Regressed bool
}

// String renders the delta for gate logs.
func (d Delta) String() string {
	status := "ok"
	if d.Regressed {
		status = "REGRESSED"
	}
	switch d.Metric {
	case "missing":
		return fmt.Sprintf("%-40s %-10s benchmark missing from current run  %s", d.Name, d.Metric, status)
	case "procs":
		return fmt.Sprintf("%-40s %-10s baseline procs=%d, current procs=%d: not comparable, run with -cpu %d  %s",
			d.Name, d.Metric, int(d.Base), int(d.Cur), int(d.Base), status)
	}
	return fmt.Sprintf("%-40s %-10s %14.1f -> %14.1f  (%5.2fx)  %s",
		d.Name, d.Metric, d.Base, d.Cur, d.Ratio, status)
}

// Compare evaluates cur against base: every benchmark in the baseline is
// gated on its ns/op ratio and (when the baseline recorded allocations)
// its allocs/op count. Benchmarks present only in cur are ignored — new
// benchmarks enter the gate when the baseline is regenerated. A baseline
// benchmark missing from cur is itself a regression: a silently dropped
// benchmark would otherwise retire its gate. A benchmark measured only at
// another GOMAXPROCS than the baseline's fails with a "procs" delta
// instead of being compared: its allocation counts differ for that
// reason alone.
func Compare(base, cur Report, th Thresholds) []Delta {
	if th.MaxNsRatio <= 0 {
		th.MaxNsRatio = DefaultMaxNsRatio
	}
	var out []Delta
	for _, b := range base.Benchmarks {
		c, ok := cur.lookupProcs(b.Name, b.Procs)
		if !ok {
			d := Delta{Name: b.Name, Metric: "missing", Regressed: true}
			if other, ok := cur.Lookup(b.Name); ok {
				d.Metric, d.Base, d.Cur = "procs", float64(b.Procs), float64(other.Procs)
			}
			out = append(out, d)
			continue
		}
		d := Delta{Name: b.Name, Metric: "ns/op", Base: b.NsPerOp, Cur: c.NsPerOp}
		if b.NsPerOp > 0 {
			d.Ratio = c.NsPerOp / b.NsPerOp
			d.Regressed = d.Ratio > th.MaxNsRatio
		}
		out = append(out, d)
		if b.HasMem && c.HasMem {
			a := Delta{Name: b.Name, Metric: "allocs/op", Base: b.AllocsPerOp, Cur: c.AllocsPerOp}
			if b.AllocsPerOp > 0 {
				a.Ratio = c.AllocsPerOp / b.AllocsPerOp
			} else if c.AllocsPerOp > 0 {
				a.Ratio = 0 // zero-alloc baseline broken; flagged below
			}
			a.Regressed = c.AllocsPerOp > b.AllocsPerOp*(1+th.AllocSlack)
			out = append(out, a)
		}
	}
	return out
}

// Regressions filters a Compare result down to the failing deltas.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}
