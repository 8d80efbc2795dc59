// Package obs is the observability plane of the reproduction: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms) plus span-based tracing under a simulated clock. The paper's
// evaluation currency — flash page I/O, RAM budgets, messages exchanged
// with the untrusted SSI, reliability-layer overhead — all flows through
// one Registry, so every cost table is derived from a single source of
// truth instead of ad-hoc per-package counters.
//
// Two contracts shape the implementation:
//
//   - Determinism: under serial execution, two identical runs produce
//     byte-identical Snapshot JSON. Nothing in the registry draws wall
//     clock time or randomness; spans are timed by a caller-advanced
//     SimClock, and exports order every series by canonical name.
//   - Race-cleanness: counters are sharded atomics (merged on read), so a
//     parallel token fleet hammering one registry never serializes on the
//     accounting plane and passes the race detector. Metric *creation* and
//     span bookkeeping take a mutex, a lookup of an existing metric a read
//     lock; the hot increment path takes none.
package obs

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// stripeCount shards each counter to keep parallel increments off a single
// cache line. Totals are exact regardless of how increments spread.
const stripeCount = 8

// paddedInt64 keeps stripes on separate cache lines.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// stripeIdx picks a stripe from the address of a caller stack slot —
// distinct goroutines run on distinct stacks, so concurrent writers tend
// to land on different stripes without any per-goroutine state.
func stripeIdx() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> 9) % stripeCount)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	stripes [stripeCount]paddedInt64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	c.stripes[stripeIdx()].v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the merged total.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// Gauge is a set metric (RAM occupancy, queue depth, 0/1 flags).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket integer histogram: observation v lands in the
// first bucket with v <= bound, or the overflow bucket. Bounds are fixed at
// creation, so snapshots are structurally stable.
type Histogram struct {
	bounds []int64
	counts []paddedInt64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].v.Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1)
// derived from the fixed buckets: the smallest bucket bound whose
// cumulative count covers ceil(q*n) observations. An observation that
// landed in the overflow bucket has no finite bound, so a quantile that
// falls there saturates to the largest configured bound — size the buckets
// so the tail quantiles you care about stay finite. ok is false when the
// histogram is empty or q is out of range.
func (h *Histogram) Quantile(q float64) (v int64, ok bool) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].v.Load()
	}
	return quantileFromBuckets(h.bounds, counts, h.n.Load(), q)
}

// quantileFromBuckets is the bucket-bound quantile estimator shared by
// Histogram.Quantile and the windowed quantiles in window.go: counts is
// one count per bucket (len(bounds)+1, last is overflow) and n the total
// observations those counts represent. Sharing the estimator keeps
// lifetime and windowed percentiles semantically identical.
func quantileFromBuckets(bounds []int64, counts []int64, n int64, q float64) (v int64, ok bool) {
	if n <= 0 || q <= 0 || q > 1 {
		return 0, false
	}
	// ceil(q*n) without float drift on exact multiples.
	rank := int64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i], true
			}
			break
		}
	}
	// Overflow (or no finite bucket at all): saturate.
	if len(bounds) == 0 {
		return 0, false
	}
	return bounds[len(bounds)-1], true
}

// Registry holds one namespace of metrics plus its tracer and simulated
// clock. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex     // guards metrics, names, alerts and attached
	metrics map[string]entry // canonical name -> series, live or forgotten by Reset
	names   []string         // live canonical names in creation order
	alerts  []AlertRecord
	epoch   atomic.Uint64 // Reset count; an entry is live when its epoch is current
	clock   *SimClock
	tracer  *Tracer

	attached []attachment
}

// entry is one series the registry holds: its metric (*Counter | *Gauge |
// *Histogram), its canonical name, and the epoch it was last registered
// in. Reset forgets a series by moving the epoch on, not by dropping the
// entry, so the next registration of the name reuses the metric.
type entry struct {
	name  string
	m     any
	epoch uint64
}

// attachment is one value another package keeps with the registry.
type attachment struct{ key, val any }

// NewRegistry creates an empty registry with a fresh simulated clock.
func NewRegistry() *Registry {
	r := &Registry{metrics: map[string]entry{}, clock: &SimClock{}}
	r.tracer = &Tracer{clock: r.clock, trace: traceIDs.Add(1)}
	return r
}

// Reset returns the registry to the state NewRegistry leaves it in, for
// a caller that recycles registries: every series, alert and span is
// forgotten, so a snapshot reads as a fresh registry's; the clock is back
// at zero; and the tracer mints a new trace id, so no SpanContext or span
// handle from before the reset resolves or writes. What a reset keeps is
// memory: each series' metric and canonical name (registering the name
// again zeroes and reuses it, allocating nothing), the span and attribute
// lists' capacity, and the attachments. Reset must not race with other
// use of the registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.epoch.Add(1)
	r.names = r.names[:0]
	r.alerts = r.alerts[:0]
	r.mu.Unlock()
	r.clock.reset()
	r.tracer.reset()
}

// Epoch counts the registry's resets. A caller caching metrics of the
// registry re-registers them by name once the epoch has moved.
func (r *Registry) Epoch() uint64 { return r.epoch.Load() }

// Attachment returns the value attached to the registry under key,
// attaching mk() the first time. An attachment lives as long as the
// registry, across Reset: the netsim observer bridge keeps its bound
// series there, so a recycled registry comes with them. mk runs under
// the registry's lock and must not use the registry.
func (r *Registry) Attachment(key any, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.attached {
		if a.key == key {
			return a.val
		}
	}
	v := mk()
	r.attached = append(r.attached, attachment{key, v})
	return v
}

// Clock returns the registry's simulated clock.
func (r *Registry) Clock() *SimClock { return r.clock }

// Tracer returns the registry's span tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }

// Name builds the canonical series name for a family plus label pairs
// (alternating key, value), sorted by key: family{k1="v1",k2="v2"}.
// With no labels it is the family itself. A trailing key without a value
// takes the empty value; labels is only read.
func Name(family string, labels ...string) string {
	if len(labels) == 0 {
		return family
	}
	type kv struct{ k, v string }
	var few [4]kv
	pairs := few[:0]
	size := len(family) + 2
	for i := 0; i < len(labels); i += 2 {
		p := kv{k: labels[i]}
		if i+1 < len(labels) {
			p.v = labels[i+1]
		}
		pairs = append(pairs, p)
		size += len(p.k) + len(p.v) + 4
	}
	slices.SortStableFunc(pairs, func(a, b kv) int { return strings.Compare(a.k, b.k) })
	var b strings.Builder
	b.Grow(size)
	b.WriteString(family)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// metricKind selects what lookup registers under a name.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// lookup returns the metric registered under key, registering one of
// the given kind (a histogram with the given ascending bounds) on first
// use in the current epoch. A metric of the same kind and shape the
// registry held before its last Reset is zeroed and reused; otherwise a
// new one is made. The fast path is one map read under the read lock:
// the key is not boxed and nothing is allocated.
func (r *Registry) lookup(key string, kind metricKind, bounds []int64) any {
	if m, ok := r.load(key); ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch := r.epoch.Load()
	e, ok := r.metrics[key]
	if ok && e.epoch == epoch {
		return e.m
	}
	if !ok || !reuse(e.m, kind, bounds) {
		e = entry{name: key, m: newMetric(kind, bounds)}
	}
	e.epoch = epoch
	r.metrics[key] = e
	r.names = append(r.names, e.name)
	return e.m
}

func newMetric(kind metricKind, bounds []int64) any {
	switch kind {
	case kindGauge:
		return &Gauge{}
	case kindHistogram:
		return &Histogram{bounds: slices.Clone(bounds), counts: make([]paddedInt64, len(bounds)+1)}
	}
	return &Counter{}
}

// reuse zeroes m for a new registration and reports whether it is of the
// kind (and, for a histogram, the bounds) asked for.
func reuse(m any, kind metricKind, bounds []int64) bool {
	switch v := m.(type) {
	case *Counter:
		if kind != kindCounter {
			return false
		}
		for i := range v.stripes {
			v.stripes[i].v.Store(0)
		}
	case *Gauge:
		if kind != kindGauge {
			return false
		}
		v.Set(0)
	case *Histogram:
		if kind != kindHistogram || !slices.Equal(v.bounds, bounds) {
			return false
		}
		for i := range v.counts {
			v.counts[i].v.Store(0)
		}
		v.sum.Store(0)
		v.n.Store(0)
	}
	return true
}

// load returns the live metric registered under key, if any.
func (r *Registry) load(key string) (any, bool) {
	r.mu.RLock()
	e, ok := r.metrics[key]
	live := ok && e.epoch == r.epoch.Load()
	r.mu.RUnlock()
	return e.m, live
}

// Counter returns (creating on first use) the counter named
// Name(family, labels...). Registering the same name as a different metric
// kind panics: that is a programming error, not a runtime condition.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	return r.lookupCounterByKey(Name(family, labels...))
}

// Gauge returns (creating on first use) the gauge named Name(family, labels...).
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	return r.lookupGaugeByKey(Name(family, labels...))
}

// Histogram returns (creating on first use) the histogram named
// Name(family, labels...) with the given bucket upper bounds (ascending).
// Bounds are fixed by the first registration.
func (r *Registry) Histogram(family string, bounds []int64, labels ...string) *Histogram {
	if !slices.IsSorted(bounds) {
		bounds = slices.Clone(bounds)
		slices.Sort(bounds)
	}
	return r.lookupHistogramByKey(Name(family, labels...), bounds)
}

func kindMismatch(key string) string {
	return "obs: " + key + " already registered with a different kind"
}

// CounterValue reads a counter's merged total without creating it.
func (r *Registry) CounterValue(family string, labels ...string) int64 {
	if m, ok := r.load(Name(family, labels...)); ok {
		if c, ok := m.(*Counter); ok {
			return c.Value()
		}
	}
	return 0
}

// GaugeValue reads a gauge without creating it.
func (r *Registry) GaugeValue(family string, labels ...string) int64 {
	if m, ok := r.load(Name(family, labels...)); ok {
		if g, ok := m.(*Gauge); ok {
			return g.Value()
		}
	}
	return 0
}

// AlertRecord is one typed alert event: a named condition (canonical
// series syntax, e.g. obs.Name("slo_burn", "class", "interactive"))
// that fired at a virtual instant with a millis-scaled value. Alerts
// ride in snapshots so a fleet merge carries every shard's firings.
type AlertRecord struct {
	AtNS       int64  `json:"at_ns"`
	Name       string `json:"name"`
	ValueMilli int64  `json:"value_milli"`
}

// MetricAlerts counts alert firings by family.
const MetricAlerts = "obs_alerts_total"

// Alert records a typed alert event and bumps the per-family alert
// counter. family/labels follow the Name convention; valueMilli is the
// observed magnitude ×1000 (burn rate, ratio, ...) kept integral for
// determinism.
func (r *Registry) Alert(atNS int64, valueMilli int64, family string, labels ...string) {
	name := Name(family, labels...)
	r.Counter(MetricAlerts, "alert", family).Inc()
	r.mu.Lock()
	r.alerts = append(r.alerts, AlertRecord{AtNS: atNS, Name: name, ValueMilli: valueMilli})
	r.mu.Unlock()
}

// Alerts returns a copy of the recorded alert events in firing order.
func (r *Registry) Alerts() []AlertRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]AlertRecord(nil), r.alerts...)
}

// Merge folds o's metrics, alerts and spans into r: counters and
// histograms add, gauges take o's latest value, alerts and spans append
// (spans with rebased ids). Used to roll a run-local registry up into a
// caller-owned one.
func (r *Registry) Merge(o *Registry) {
	if o == nil || o == r {
		return
	}
	r.MergeSnapshot(o.Snapshot())
}

// MergeSnapshot folds an exported snapshot into r by the same rules as
// Merge. It is the fleet-scrape primitive: the pdsd coordinator pulls
// JSON snapshots from shard processes over the wire and folds them into
// one registry without ever holding the remote registry itself.
func (r *Registry) MergeSnapshot(snap Snapshot) {
	for _, c := range snap.Counters {
		r.lookupCounterByKey(c.Name).Add(c.Value)
	}
	for _, g := range snap.Gauges {
		r.lookupGaugeByKey(g.Name).Set(g.Value)
	}
	for _, h := range snap.Histograms {
		bounds := make([]int64, 0, len(h.Buckets))
		for _, b := range h.Buckets {
			if !b.Overflow {
				bounds = append(bounds, b.LE)
			}
		}
		dst := r.lookupHistogramByKey(h.Name, bounds)
		for i, b := range h.Buckets {
			if i < len(dst.counts) {
				dst.counts[i].v.Add(b.Count)
			}
		}
		dst.sum.Add(h.Sum)
		dst.n.Add(h.Count)
	}
	if len(snap.Alerts) > 0 {
		r.mu.Lock()
		r.alerts = append(r.alerts, snap.Alerts...)
		r.mu.Unlock()
	}
	r.tracer.importSpans(snap.Spans)
}

// lookupCounterByKey resolves a counter by its full canonical name; a name
// held by another kind panics.
func (r *Registry) lookupCounterByKey(key string) *Counter {
	m := r.lookup(key, kindCounter, nil)
	if c, ok := m.(*Counter); ok {
		return c
	}
	panic(kindMismatch(key))
}

func (r *Registry) lookupGaugeByKey(key string) *Gauge {
	m := r.lookup(key, kindGauge, nil)
	if g, ok := m.(*Gauge); ok {
		return g
	}
	panic(kindMismatch(key))
}

func (r *Registry) lookupHistogramByKey(key string, bounds []int64) *Histogram {
	m := r.lookup(key, kindHistogram, bounds)
	if h, ok := m.(*Histogram); ok {
		return h
	}
	panic(kindMismatch(key))
}
