package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point.
type span struct {
	Name       string
	Start, End time.Time
	Worker     int
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// timed runs fn inside a span and returns its duration in ms.
func (l *spanLog) timed(name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	l.add(span{Name: name, Start: start, End: end})
	return float64(end.Sub(start).Nanoseconds()) / 1e6
}

// write saves the spans as Chrome trace events (chrome://tracing,
// Perfetto).
func (l *spanLog) write(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	l.mu.Lock()
	evs := make([]event, len(l.spans))
	for i, s := range l.spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Worker,
			TS:  float64(s.Start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
		}
	}
	l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
