package obs

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// SimClock is the simulated time base for spans. It only moves when a
// caller advances it — typically by the netsim cost model's transfer time
// or a reliability layer's backoff — so span durations reflect simulated
// protocol time, never wall clock, and snapshots stay deterministic.
type SimClock struct {
	mu  sync.Mutex
	now time.Duration
}

// Now returns the current simulated time as an offset from the epoch.
func (c *SimClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d is ignored) and
// returns the new time.
func (c *SimClock) Advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

// SpanRecord is one finished (or still-open) span as it appears in a
// snapshot. Times are simulated-clock offsets in nanoseconds.
type SpanRecord struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"` // 0 = root
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"` // == StartNS for open spans at snapshot time
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// SpanContext is the compact wire form of a span identity: 16 bytes —
// (trace id, span id) — small enough to ride inside every netsim frame, so
// a receiver on another simulated node can parent its own spans under a
// span the sender opened. The zero value means "no context".
type SpanContext struct {
	Trace uint64 // tracer identity; process-unique, never exported
	Span  uint64 // span id within that tracer
}

// IsZero reports whether the context carries no span.
func (c SpanContext) IsZero() bool { return c == SpanContext{} }

// traceIDs mints process-unique tracer identities so a context minted by
// one tracer is never mistaken for a span of another (ids start at 1; 0 is
// the zero context).
var traceIDs atomic.Uint64

// Tracer records parent/child spans against a SimClock. Raw IDs are
// assigned in Start order; exports renumber them canonically (see
// canonicalSpans), so snapshots do not depend on goroutine interleaving.
type Tracer struct {
	clock *SimClock
	trace uint64 // identity embedded in contexts this tracer mints

	mu    sync.Mutex
	next  int
	spans []SpanRecord
}

// Span is a handle to an open span.
type Span struct {
	t   *Tracer
	id  int
	idx int
}

// Start opens a span under parent (nil for a root span).
func (t *Tracer) Start(name string, parent *Span) *Span {
	now := int64(t.clock.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	t.spans = append(t.spans, SpanRecord{ID: id, Parent: pid, Name: name, StartNS: now, EndNS: now})
	return &Span{t: t, id: id, idx: len(t.spans) - 1}
}

// StartAt opens a span at an explicit simulated time instead of the
// clock's current reading — the entry point for discrete-event callers
// (e.g. the gquery tree scheduler) that lay work out on many per-node
// timelines and only afterwards advance the shared clock by the
// schedule's makespan. Pair with Span.EndAt.
func (t *Tracer) StartAt(name string, parent *Span, start time.Duration) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	t.spans = append(t.spans, SpanRecord{ID: id, Parent: pid, Name: name, StartNS: int64(start), EndNS: int64(start)})
	return &Span{t: t, id: id, idx: len(t.spans) - 1}
}

// StartRemote opens a span whose parent arrived over the wire as a
// SpanContext — the receive side of cross-node causality. A zero or
// foreign context (minted by a different tracer) yields a root span: the
// link is only trusted within the tracer that minted it.
func (t *Tracer) StartRemote(name string, ctx SpanContext) *Span {
	now := int64(t.clock.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.spans = append(t.spans, SpanRecord{ID: id, Parent: t.resolve(ctx), Name: name, StartNS: now, EndNS: now})
	return &Span{t: t, id: id, idx: len(t.spans) - 1}
}

// Event records an instantaneous child span under a wire context — a
// retransmission, a duplicate delivery, an ack. It is the cheap path: no
// handle, no attrs, one record append.
func (t *Tracer) Event(name string, ctx SpanContext) {
	now := int64(t.clock.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, SpanRecord{ID: t.next, Parent: t.resolve(ctx), Name: name, StartNS: now, EndNS: now})
}

// resolve maps a wire context to a local parent id (0 when the context is
// zero, foreign, or dangling). Callers hold t.mu.
func (t *Tracer) resolve(ctx SpanContext) int {
	if ctx.Trace == t.trace && ctx.Span > 0 && ctx.Span <= uint64(t.next) {
		return int(ctx.Span)
	}
	return 0
}

// End closes the span at the clock's current simulated time.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	now := int64(s.t.clock.Now())
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.idx < len(s.t.spans) {
		s.t.spans[s.idx].EndNS = now
	}
}

// EndAt closes the span at an explicit simulated time (see StartAt).
// An end before the span's start is clamped to the start.
func (s *Span) EndAt(end time.Duration) {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.idx < len(s.t.spans) {
		e := int64(end)
		if e < s.t.spans[s.idx].StartNS {
			e = s.t.spans[s.idx].StartNS
		}
		s.t.spans[s.idx].EndNS = e
	}
}

// Context returns the span's wire context for embedding in outgoing
// messages. A nil span yields the zero context.
func (s *Span) Context() SpanContext {
	if s == nil || s.t == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.t.trace, Span: uint64(s.id)}
}

// Annotate attaches a key/value attribute to the span.
func (s *Span) Annotate(k, v string) {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.idx < len(s.t.spans) {
		if s.t.spans[s.idx].Attrs == nil {
			s.t.spans[s.idx].Attrs = map[string]string{}
		}
		s.t.spans[s.idx].Attrs[k] = v
	}
}

// Spans returns a copy of the span list renumbered canonically: ids follow
// the causal structure, not the racy Start order, so a Workers=4 fleet run
// exports byte-identically across repetitions. It is the span half of
// Registry.Snapshot, for callers that want the trace alone.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := canonicalSpans(t.spans)
	for i := range out {
		out[i].Attrs = maps.Clone(out[i].Attrs)
	}
	return out
}

// importSpans appends foreign spans with IDs rebased past the tracer's
// current high-water mark, preserving their internal parent links.
func (t *Tracer) importSpans(spans []SpanRecord) {
	if len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.next
	maxID := 0
	for _, sp := range spans {
		sp.ID += base
		if sp.Parent != 0 {
			sp.Parent += base
		}
		if sp.ID > maxID {
			maxID = sp.ID
		}
		t.spans = append(t.spans, sp)
	}
	if maxID > t.next {
		t.next = maxID
	}
}
