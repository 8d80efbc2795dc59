package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// maxSpans bounds the spans one workload keeps in memory; later spans
// are counted in dropped but not stored, so a long traced pass cannot
// grow the heap (or the trace file) without limit.
const maxSpans = 60000

// span is one call from the harness into a layer. Spans are recorded by
// the harness only, around the public functions it calls; IDs are 1-based
// indexes into the recorder, parent 0 means a root.
type span struct {
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
	Parent int
	Op     int // the workload op the call belongs to
}

// recorder collects spans in memory. A nil *recorder is the tracing-off
// state: every method is a no-op, so the measured pass calls the same
// code with no branches at the call sites.
type recorder struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off or the
// recorder is full).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Op: op})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.epoch))
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover (children of
// one parent are sequential calls from one goroutine, so their union is
// their clipped sum).
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent <= 0 || s.Parent > len(spans) {
			continue
		}
		p := spans[s.Parent-1]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			covered[s.Parent-1] += hi - lo
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		self := s.End - s.Start - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// traceEvent is one Chrome/Perfetto "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes DIR/trace-<workload>.json in trace-event form, with
// each layer's summed self time in the file's metadata.
func (r *recorder) writeTrace(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i + 1, "parent": s.Parent, "op": s.Op},
		})
	}
	self := selfTimes(r.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	selfUS := map[string]float64{}
	for _, n := range names {
		selfUS[n] = float64(self[n]) / 1e3
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"metadata": map[string]any{
			"workload":      workload,
			"dropped_spans": r.dropped,
			"self_time_us":  selfUS,
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
