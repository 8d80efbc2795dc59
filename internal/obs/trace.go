package obs

import (
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

// reset moves the clock back to the epoch.
func (c *SimClock) reset() {
	c.mu.Lock()
	c.now = 0
	c.mu.Unlock()
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
//
// A span's attributes are not kept in its record but in a side table of
// (span, key, value) entries, so annotating a span allocates nothing
// once the table has grown; the Attrs maps are built only when spans are
// exported. The records in spans never carry Attrs.
type Tracer struct {
	clock *SimClock

	mu    sync.Mutex
	trace uint64 // identity embedded in contexts this tracer mints; new per reset
	next  int
	spans []SpanRecord
	attrs []spanAttr
	slab  []Span    // handles not yet handed out
	cp    cpScratch // working memory of CriticalPath
}

// spanAttr is one attribute of the span at index idx of the span list.
type spanAttr struct {
	idx  int
	k, v string
}

// Span is a handle to an open span. A handle minted before its tracer's
// reset carries the old trace id, and writes nothing after it.
type Span struct {
	t     *Tracer
	id    int
	idx   int
	trace uint64
}

// spanSlab is how many handles the tracer allocates at once.
const spanSlab = 32

// handle hands out the handle of the span record just appended, from the
// tracer's slab: a run opens a span per transfer, so handles are carved
// from one allocation instead of one each. Callers hold t.mu.
func (t *Tracer) handle(id int) *Span {
	if len(t.slab) == 0 {
		t.slab = make([]Span, spanSlab)
	}
	sp := &t.slab[0]
	t.slab = t.slab[1:]
	*sp = Span{t: t, id: id, idx: len(t.spans) - 1, trace: t.trace}
	return sp
}

// reset forgets every span and attribute and mints a new trace id (see
// Registry.Reset); the lists keep their capacity.
func (t *Tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace = traceIDs.Add(1)
	t.next = 0
	t.spans = t.spans[:0]
	t.attrs = t.attrs[:0]
}

// live reports whether the handle's span is in the tracer's current
// span list. Callers hold s.t.mu.
func (s *Span) live() bool { return s.trace == s.t.trace && s.idx < len(s.t.spans) }

// Start opens a span under parent (nil for a root span; a handle of
// another tracer, or from before a reset, also yields a root span).
func (t *Tracer) Start(name string, parent *Span) *Span {
	now := int64(t.clock.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.spans = append(t.spans, SpanRecord{ID: id, Parent: t.parentID(parent), Name: name, StartNS: now, EndNS: now})
	return t.handle(id)
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
	t.spans = append(t.spans, SpanRecord{ID: id, Parent: t.parentID(parent), Name: name, StartNS: int64(start), EndNS: int64(start)})
	return t.handle(id)
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
	return t.handle(id)
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

// parentID is the local id of a parent handle: 0 (a root span) for a nil
// handle or one minted by another tracer or before a reset. Callers hold
// t.mu.
func (t *Tracer) parentID(parent *Span) int {
	if parent == nil || parent.trace != t.trace {
		return 0
	}
	return parent.id
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
	if s.live() {
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
	if s.live() {
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
	return SpanContext{Trace: s.trace, Span: uint64(s.id)}
}

// Annotate attaches a key/value attribute to the span; a later value
// for the same key replaces an earlier one.
func (s *Span) Annotate(k, v string) {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.live() {
		s.t.attrs = append(s.t.attrs, spanAttr{s.idx, k, v})
	}
}

// Spans returns a copy of the span list renumbered canonically: ids follow
// the causal structure, not the racy Start order, so a Workers=4 fleet run
// exports byte-identically across repetitions. It is the span half of
// Registry.Snapshot, for callers that want the trace alone.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return canonicalSpans(t.spans, t.attrMaps())
}

// attrMaps gathers the side table into one attribute map per annotated
// span, indexed like the span list, in one pass; nil when no span is
// annotated. Callers hold t.mu.
func (t *Tracer) attrMaps() []map[string]string {
	if len(t.attrs) == 0 {
		return nil
	}
	maps := make([]map[string]string, len(t.spans))
	for _, a := range t.attrs {
		if maps[a.idx] == nil {
			maps[a.idx] = map[string]string{}
		}
		maps[a.idx][a.k] = a.v
	}
	return maps
}

// attrsOf gathers span i's attributes from the side table, nil when it
// has none. Callers hold t.mu.
func (t *Tracer) attrsOf(i int) map[string]string {
	var m map[string]string
	for _, a := range t.attrs {
		if a.idx == i {
			if m == nil {
				m = map[string]string{}
			}
			m[a.k] = a.v
		}
	}
	return m
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
		for k, v := range sp.Attrs {
			t.attrs = append(t.attrs, spanAttr{len(t.spans), k, v})
		}
		sp.Attrs = nil
		t.spans = append(t.spans, sp)
	}
	if maxID > t.next {
		t.next = maxID
	}
}
