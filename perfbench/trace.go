package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: root
	Name   string  `json:"name"`
	Rank   int     `json:"rank"`
	Start  float64 `json:"start_s"` // seconds since the trace began
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes call the same code.
type tracer struct {
	mu    sync.Mutex
	id    string
	t0    time.Time
	spans []span
}

func newTracer(id string) *tracer { return &tracer{id: id, t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, rank int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Rank: rank, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, rank int, f func()) {
	id := t.begin(name, parent, rank)
	f()
	t.end(id)
}

// sums returns, per span name, the total duration of rank's closed
// spans whose parent is parent.
func (t *tracer) sums(parent, rank int) map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent == parent && s.Rank == rank && s.End >= 0 {
			out[s.Name] += s.End - s.Start
		}
	}
	return out
}

// counts returns, per span name, the number of rank's spans under parent.
func (t *tracer) counts(parent, rank int) map[string]int {
	out := map[string]int{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent == parent && s.Rank == rank {
			out[s.Name]++
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		TraceID string `json:"trace_id"`
		Spans   []span `json:"spans"`
	}{t.id, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}
