package stats

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"jvmgc/internal/xrand"
)

// mkClientRun builds a synthetic client trace: steady ~1ms operations at
// 100/s over 1000s, plus pause shadows — during each GC pause the
// operation in flight observes the pause duration.
func mkClientRun() ([]LatencySample, []Interval) {
	rng := xrand.New(7)
	var pauses []Interval
	for i := 1; i <= 9; i++ {
		start := float64(i) * 100
		pauses = append(pauses, Interval{Start: start, End: start + 0.5})
	}
	var samples []LatencySample
	pi := 0
	for t := 0.0; t < 1000; t += 0.01 {
		lat := rng.Jitter(1.0, 0.2) // ms
		// A closed-loop client issues the op that hits the pause and then
		// stalls: the in-flight op absorbs the rest of the pause, and the
		// client resumes after the pause end.
		for pi < len(pauses) && t > pauses[pi].End {
			pi++
		}
		if pi < len(pauses) && t >= pauses[pi].Start && t < pauses[pi].End {
			lat += (pauses[pi].End - t) * 1e3
			samples = append(samples, LatencySample{Completed: t + lat/1e3, LatencyMS: lat})
			t = pauses[pi].End // skip to pause end; loop's += 0.01 resumes pacing
			continue
		}
		samples = append(samples, LatencySample{Completed: t + lat/1e3, LatencyMS: lat})
	}
	return samples, pauses
}

func TestIntervalOverlaps(t *testing.T) {
	a := Interval{0, 2}
	cases := []struct {
		b    Interval
		want bool
	}{
		{Interval{1, 3}, true},
		{Interval{2, 3}, false}, // half-open: touching doesn't overlap
		{Interval{-1, 0}, false},
		{Interval{0.5, 1.5}, true},
		{Interval{-1, 5}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v", a, c.b, got)
		}
	}
}

func TestAnalyzeBandsEmpty(t *testing.T) {
	rep := AnalyzeBands(nil, nil, 0.001)
	if rep.N != 0 || rep.AvgMS != 0 {
		t.Error("empty report nonzero")
	}
}

func TestAnalyzeBandsShape(t *testing.T) {
	samples, pauses := mkClientRun()
	rep := AnalyzeBands(samples, pauses, 0.001)

	if rep.N != int64(len(samples)) {
		t.Errorf("N = %d", rep.N)
	}
	// Average stays near the base latency: spikes are rare.
	if rep.AvgMS < 0.8 || rep.AvgMS > 2.0 {
		t.Errorf("avg = %v ms", rep.AvgMS)
	}
	// Max is a pause shadow (~500ms).
	if rep.MaxMS < 300 || rep.MaxMS > 700 {
		t.Errorf("max = %v ms", rep.MaxMS)
	}
	// The vast majority of requests are in the normal band, and no GC is
	// invisible (every pause produced a shadow far above 1.5x).
	if rep.Normal.Reqs < 90 {
		t.Errorf("normal band reqs = %v%%", rep.Normal.Reqs)
	}
	if rep.Normal.GCs != 0 {
		t.Errorf("normal band GCs = %v%%, want 0", rep.Normal.GCs)
	}
	// Every exceedance band that exists must have 100% GC coverage here:
	// all pauses are long enough to push some request beyond any band
	// below 500x.
	if len(rep.Above) == 0 {
		t.Fatal("no exceedance bands")
	}
	for _, row := range rep.Above[:3] {
		if row.GCs != 100 {
			t.Errorf("band %s GCs = %v%%, want 100", row.Label, row.GCs)
		}
	}
	// Band request percentages decrease monotonically.
	for i := 1; i < len(rep.Above); i++ {
		if rep.Above[i].Reqs > rep.Above[i-1].Reqs {
			t.Errorf("band %s reqs %v > previous %v",
				rep.Above[i].Label, rep.Above[i].Reqs, rep.Above[i-1].Reqs)
		}
	}
}

func TestAnalyzeBandsStopsAtMinPct(t *testing.T) {
	samples, pauses := mkClientRun()
	short := AnalyzeBands(samples, pauses, 5.0)
	long := AnalyzeBands(samples, pauses, 0.0001)
	if len(short.Above) > len(long.Above) {
		t.Errorf("higher cutoff produced more bands: %d vs %d", len(short.Above), len(long.Above))
	}
	if len(short.Above) < 1 {
		t.Error("cutoff removed all bands")
	}
}

func TestAnalyzeBandsNoGCs(t *testing.T) {
	samples, _ := mkClientRun()
	rep := AnalyzeBands(samples, nil, 0.001)
	if rep.Normal.GCs != 0 {
		t.Errorf("GCs%% without pauses = %v", rep.Normal.GCs)
	}
	for _, row := range rep.Above {
		if row.GCs != 0 {
			t.Errorf("band %s GCs = %v without pauses", row.Label, row.GCs)
		}
	}
}

func TestAnalyzeBandsQuietGC(t *testing.T) {
	// A pause overlapped only by normal-latency requests must count in
	// the normal band's GC column.
	samples := []LatencySample{
		{Completed: 10.0, LatencyMS: 1},
		{Completed: 10.001, LatencyMS: 1},
		{Completed: 20.0, LatencyMS: 1},
	}
	pauses := []Interval{{Start: 9.9995, End: 10.0005}}
	rep := AnalyzeBands(samples, pauses, 0.001)
	if rep.Normal.GCs != 100 {
		t.Errorf("quiet GC not counted: %v%%", rep.Normal.GCs)
	}
}

func TestBandLabels(t *testing.T) {
	for mult, want := range map[float64]string{2: ">2x AVG", 4: ">4x AVG", 8: ">8x AVG", 16: ">16x AVG", 32: ">32x AVG", 64: ">64x AVG", 512: ">>AVG"} {
		if got := bandLabel(mult); got != want {
			t.Errorf("bandLabel(%v) = %q", mult, got)
		}
	}
}

func TestAnalyzeBandsReqPercentagesSumSanity(t *testing.T) {
	samples, pauses := mkClientRun()
	rep := AnalyzeBands(samples, pauses, 0.001)
	// Normal + everything above 2x cannot exceed 100% (plus the gap
	// between 1.5x and 2x).
	if rep.Normal.Reqs+rep.Above[0].Reqs > 100+1e-9 {
		t.Errorf("bands overlap: %v + %v", rep.Normal.Reqs, rep.Above[0].Reqs)
	}
	if math.IsNaN(rep.Normal.Reqs) {
		t.Error("NaN percentage")
	}
}

// analyzeBandsSorted is the sort-based AnalyzeBands that preceded the
// linear-time construction, kept verbatim as the oracle of the
// differential test and the fuzz target: AnalyzeBands must return
// exactly what it returns.
func analyzeBandsSorted(samples []LatencySample, pauses []Interval, minReqPct float64) BandReport {
	var rep BandReport
	if len(samples) == 0 {
		return rep
	}
	var w Welford
	for _, s := range samples {
		w.Add(s.LatencyMS)
	}
	rep.N = w.N()
	rep.AvgMS = w.Mean()
	rep.MinMS = w.Min()
	rep.MaxMS = w.Max()
	avg := rep.AvgMS
	n := float64(len(samples))

	// Sort samples by completion for the overlap sweep, and latencies
	// alone for the band membership counts.
	byTime := append([]LatencySample(nil), samples...)
	sort.Slice(byTime, func(i, j int) bool { return byTime[i].Completed < byTime[j].Completed })
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.LatencyMS
	}
	sort.Float64s(lat)

	// For each pause, find the worst overlapping latency and whether any
	// overlapping request exists: pauses in start order share one
	// monotone candidate pointer into the completion-sorted samples.
	worst := make([]float64, len(pauses))
	hasReq := make([]bool, len(pauses))
	order := make([]int, len(pauses))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pauses[order[a]].Start < pauses[order[b]].Start })
	maxSec := rep.MaxMS / 1e3
	lo := 0
	for _, pi := range order {
		p := pauses[pi]
		// Only requests completing after the pause starts can overlap it;
		// later pauses start no earlier, so the pointer never backs up.
		for lo < len(byTime) && byTime[lo].Completed <= p.Start {
			lo++
		}
		for i := lo; i < len(byTime); i++ {
			s := byTime[i]
			// Past this completion bound even the longest request's
			// service interval starts after the pause ends.
			if s.Completed > p.End+maxSec {
				break
			}
			if s.interval().Overlaps(p) {
				hasReq[pi] = true
				if s.LatencyMS > worst[pi] {
					worst[pi] = s.LatencyMS
				}
			}
		}
	}
	gcTotal := float64(len(pauses))

	// countAbove returns how many latencies exceed thresh.
	countAbove := func(thresh float64) int {
		return len(lat) - sort.Search(len(lat), func(k int) bool { return lat[k] > thresh })
	}

	// Normal band: 0.5x–1.5x.
	bandLo, bandHi := 0.5*avg, 1.5*avg
	first := sort.Search(len(lat), func(k int) bool { return lat[k] >= bandLo })
	inNormal := len(lat) - first - countAbove(bandHi)
	quiet := 0
	for pi := range pauses {
		if hasReq[pi] && worst[pi] <= bandHi {
			quiet++
		}
	}
	rep.Normal = BandRow{Label: "0.5x-1.5x AVG", Reqs: 100 * float64(inNormal) / n}
	if gcTotal > 0 {
		rep.Normal.GCs = 100 * float64(quiet) / gcTotal
	}

	// Exceedance bands: >2x, >4x, >8x, ...
	for mult := 2.0; ; mult *= 2 {
		thresh := mult * avg
		count := countAbove(thresh)
		pct := 100 * float64(count) / n
		if pct < minReqPct && len(rep.Above) > 0 {
			break
		}
		row := BandRow{Label: bandLabel(mult), Reqs: pct}
		if gcTotal > 0 {
			hit := 0
			for pi := range pauses {
				if worst[pi] > thresh {
					hit++
				}
			}
			row.GCs = 100 * float64(hit) / gcTotal
		}
		rep.Above = append(rep.Above, row)
		if count == 0 {
			break
		}
	}
	return rep
}

// checkBandsAgainstSorted fails the test unless AnalyzeBands and the
// sort-based oracle agree exactly and neither touched its inputs.
func checkBandsAgainstSorted(t *testing.T, samples []LatencySample, pauses []Interval, minReqPct float64) {
	t.Helper()
	s0, p0 := slices.Clone(samples), slices.Clone(pauses)
	want := analyzeBandsSorted(samples, pauses, minReqPct)
	got := AnalyzeBands(samples, pauses, minReqPct)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalyzeBands(%d samples, %d pauses, minReqPct %v):\n got  %+v\n want %+v",
			len(samples), len(pauses), minReqPct, got, want)
	}
	if !reflect.DeepEqual(samples, s0) || !reflect.DeepEqual(pauses, p0) {
		t.Fatal("AnalyzeBands modified its inputs")
	}
}

// shuffle permutes xs in place (Fisher–Yates).
func shuffle[T any](rng *xrand.Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// randomBandInput draws one differential case: pauses from up to three
// independent node timelines merged in shuffled order (so they overlap,
// as the cluster's merged pauses do), samples in shuffled completion
// order with lognormal latencies and pause shadows, and — half the
// time — balanced groups of samples placed on the band edges of the
// base set's mean: (0.5, 1.5), (0, 2), (4, 0, 0, 0) and (8, 0×7) times
// the mean leave the mean unchanged in exact arithmetic, so their
// latencies land on 0.5×, 1.5×, 2×, 4× and 8× AVG or next to them.
func randomBandInput(rng *xrand.Rand) ([]LatencySample, []Interval) {
	const horizon = 60.0
	var pauses []Interval
	for node := 1 + rng.Intn(3); node > 0; node-- {
		at := rng.Float64() * 5
		for k := rng.Intn(8); k > 0; k-- {
			d := 0.001 + rng.Float64()*rng.Float64()*2
			pauses = append(pauses, Interval{Start: at, End: at + d})
			at += d + rng.Float64()*10
		}
	}
	shuffle(rng, pauses)

	n := 1 + rng.Intn(300)
	samples := make([]LatencySample, 0, n+16)
	for i := 0; i < n; i++ {
		lat := rng.LogNormal(0, 0.5)
		completed := rng.Float64() * horizon
		if len(pauses) > 0 && rng.Bool(0.2) {
			// A pause shadow: service starts inside the pause and
			// completes after it.
			p := pauses[rng.Intn(len(pauses))]
			start := p.Start + rng.Float64()*(p.End-p.Start)
			completed = p.End + lat/1e3
			lat = (completed - start) * 1e3
		}
		samples = append(samples, LatencySample{Completed: completed, LatencyMS: lat})
	}
	if rng.Bool(0.5) {
		var w Welford
		for _, s := range samples {
			w.Add(s.LatencyMS)
		}
		m := w.Mean()
		for _, group := range [][]float64{{0.5, 1.5}, {0, 2}, {4, 0, 0, 0}, {8, 0, 0, 0, 0, 0, 0, 0}} {
			for _, c := range group {
				samples = append(samples, LatencySample{Completed: rng.Float64() * horizon, LatencyMS: c * m})
			}
		}
	}
	shuffle(rng, samples)
	return samples, pauses
}

// TestAnalyzeBandsMatchesSortedReference is the differential test of
// the linear-time construction against the sort-based oracle.
func TestAnalyzeBandsMatchesSortedReference(t *testing.T) {
	minPcts := []float64{0, 0.01, 5, 100}
	rng := xrand.New(13)
	onEdge := map[float64]int{}
	for trial := 0; trial < 2000; trial++ {
		samples, pauses := randomBandInput(rng)
		for _, minPct := range minPcts {
			checkBandsAgainstSorted(t, samples, pauses, minPct)
		}
		avg := analyzeBandsSorted(samples, nil, 0).AvgMS
		for _, s := range samples {
			for _, mult := range []float64{0.5, 1.5, 2, 4, 8} {
				if s.LatencyMS == mult*avg {
					onEdge[mult]++
				}
			}
		}
	}
	// The balanced groups must actually reach every band edge.
	for _, mult := range []float64{0.5, 1.5, 2, 4, 8} {
		if onEdge[mult] == 0 {
			t.Errorf("no sample landed exactly on %v×AVG", mult)
		}
	}

	clientSamples, clientPauses := mkClientRun()
	fixed := []struct {
		name    string
		samples []LatencySample
		pauses  []Interval
	}{
		{"one sample", []LatencySample{{Completed: 1, LatencyMS: 3}}, []Interval{{Start: 0.999, End: 1.5}}},
		{"one sample no pauses", []LatencySample{{Completed: 1, LatencyMS: 3}}, nil},
		{"equal latencies", []LatencySample{{1, 2}, {2, 2}, {3, 2}}, []Interval{{Start: 1.9, End: 2.1}}},
		{"zero latencies", []LatencySample{{1, 0}, {2, 0}}, []Interval{{Start: 0, End: 3}}},
		{"touching pause", []LatencySample{{Completed: 2, LatencyMS: 1000}}, []Interval{{Start: 2, End: 3}, {Start: 0, End: 1}}},
		{"client run", clientSamples, clientPauses},
		{"client run no pauses", clientSamples, nil},
	}
	for _, c := range fixed {
		t.Run(c.name, func(t *testing.T) {
			for _, minPct := range minPcts {
				checkBandsAgainstSorted(t, c.samples, c.pauses, minPct)
			}
		})
	}
}

// decodeBandInput turns fuzz bytes into a band-analysis input. Byte 0
// holds the pause count (low nibble); bytes 1 and 2 pick power-of-two
// scales for times and latencies; then come the pauses (start and
// length, two little-endian uint16 each) and the samples (completion
// and latency, likewise). Values are exact binary fractions, so ties —
// touching intervals, latencies on band edges — are common.
func decodeBandInput(data []byte) ([]LatencySample, []Interval) {
	if len(data) < 3 {
		return nil, nil
	}
	np := int(data[0] & 0x0f)
	timeScale := math.Ldexp(1, int(int8(data[1]))%16-8)
	latScale := math.Ldexp(1, int(int8(data[2]))%16-4)
	data = data[3:]
	u16 := func(i int) float64 { return float64(uint16(data[i]) | uint16(data[i+1])<<8) }
	var pauses []Interval
	for ; np > 0 && len(data) >= 4; np-- {
		start := u16(0) * timeScale
		pauses = append(pauses, Interval{Start: start, End: start + u16(2)*timeScale})
		data = data[4:]
	}
	var samples []LatencySample
	for ; len(data) >= 4; data = data[4:] {
		samples = append(samples, LatencySample{Completed: u16(0) * timeScale, LatencyMS: u16(2) * latScale})
	}
	return samples, pauses
}

func FuzzAnalyzeBands(f *testing.F) {
	f.Add([]byte{2, 0, 0, 10, 0, 5, 0, 12, 0, 2, 0, 11, 0, 64, 0, 13, 0, 1, 0, 30, 0, 1, 0}, 0.01)
	f.Add([]byte{3, 8, 12, 0, 0, 255, 255, 1, 0, 1, 0, 2, 0, 2, 0, 255, 255, 255, 255, 7, 0, 0, 0}, 0.0)
	f.Add([]byte{0, 0, 0, 1, 0, 4, 0, 2, 0, 4, 0, 3, 0, 2, 0, 4, 0, 6, 0}, 100.0)
	f.Fuzz(func(t *testing.T, data []byte, minReqPct float64) {
		samples, pauses := decodeBandInput(data)
		checkBandsAgainstSorted(t, samples, pauses, minReqPct)
	})
}

// benchBandReport keeps BenchmarkAnalyzeBands' result alive.
var benchBandReport BandReport

// BenchmarkAnalyzeBands times one Tables 5–7 band report at the scale
// of the client study's per-operation traces: 600k samples of
// open-loop arrivals at 150/s (about 4000 s) against 60 GC pauses,
// with the pause shadows a YCSB replay produces.
func BenchmarkAnalyzeBands(b *testing.B) {
	const n, nPauses, rate = 600_000, 60, 150.0
	rng := xrand.New(42)
	horizon := n / rate
	pauses := make([]Interval, nPauses)
	for k := range pauses {
		start := (float64(k) + rng.Float64()) * horizon / nPauses
		pauses[k] = Interval{Start: start, End: start + 0.05 + 0.45*rng.Float64()}
	}
	samples := make([]LatencySample, 0, n)
	pi := 0
	for t := 0.0; len(samples) < n; t += rng.Exp(1 / rate) {
		lat := rng.LogNormal(math.Log(0.7), 0.18)
		for pi < len(pauses) && pauses[pi].End <= t {
			pi++
		}
		if pi < len(pauses) && t >= pauses[pi].Start {
			lat += (pauses[pi].End - t) * 1e3
		}
		samples = append(samples, LatencySample{Completed: t + lat/1e3, LatencyMS: lat})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBandReport = AnalyzeBands(samples, pauses, 0.01)
	}
}
