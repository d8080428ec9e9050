// Command benchdiff converts `go test -bench` output into a
// machine-readable JSON report and gates it against a committed baseline.
//
// Typical CI usage (see ci.sh's bench-gate step):
//
//	go test -run=NONE -bench '...' -benchmem ./... | \
//	    benchdiff -out BENCH_current.json -baseline BENCH_baseline.json
//
// Exit status: 0 when no gated benchmark regressed (or no baseline was
// given), 1 on regression, 2 on usage or parse errors. A benchmark in the
// baseline regresses when its ns/op exceeds the baseline by more than
// -max-ns-ratio allows, when its allocs/op increases at all (allocation
// counts are deterministic at a fixed GOMAXPROCS; see -alloc-slack), or
// when it disappears from the current run. A benchmark measured only at a
// different GOMAXPROCS than the baseline recorded fails with a message
// naming both settings instead of being compared. Benchmarks absent from
// the baseline are recorded in the output report but not gated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jvmgc/internal/benchreg"
)

func main() {
	var (
		in         = flag.String("in", "", "benchmark text to parse (default stdin)")
		out        = flag.String("out", "", "write the parsed report as JSON to this file")
		baseline   = flag.String("baseline", "", "baseline JSON report to gate against")
		maxNsRatio = flag.Float64("max-ns-ratio", benchreg.DefaultMaxNsRatio, "highest tolerated current/baseline ns/op ratio")
		allocSlack = flag.Float64("alloc-slack", 0, "tolerated fractional allocs/op increase (0 = any increase fails)")
		quiet      = flag.Bool("q", false, "print only regressions, not the full comparison table")
	)
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	cur, err := benchreg.Parse(src)
	if err != nil {
		fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results in input"))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := cur.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *baseline == "" {
		fmt.Printf("benchdiff: parsed %d benchmarks (no baseline, nothing gated)\n", len(cur.Benchmarks))
		return
	}
	bf, err := os.Open(*baseline)
	if err != nil {
		fatal(err)
	}
	base, err := benchreg.ReadJSON(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}

	deltas := benchreg.Compare(base, cur, benchreg.Thresholds{
		MaxNsRatio: *maxNsRatio,
		AllocSlack: *allocSlack,
	})
	regs := benchreg.Regressions(deltas)
	for _, d := range deltas {
		if *quiet && !d.Regressed {
			continue
		}
		fmt.Println(d)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) against %s\n", len(regs), *baseline)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d gated benchmarks within thresholds\n", len(base.Benchmarks))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
