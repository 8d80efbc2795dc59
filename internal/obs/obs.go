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
//     span bookkeeping take a mutex; the hot increment path does not.
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

// Gauge is a set-or-adjust metric (RAM occupancy, queue depth, 0/1 flags).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

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
	mu      sync.Mutex // serializes metric creation, Snapshot and Merge
	metrics sync.Map   // canonical name -> *Counter | *Gauge | *Histogram
	names   []string   // creation-ordered canonical names (under mu)
	alerts  []AlertRecord
	clock   *SimClock
	tracer  *Tracer
}

// NewRegistry creates an empty registry with a fresh simulated clock.
func NewRegistry() *Registry {
	r := &Registry{clock: &SimClock{}}
	r.tracer = &Tracer{clock: r.clock, trace: traceIDs.Add(1)}
	return r
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

// lookup returns the metric registered under key, creating it with mk on
// first use. The fast path is one lock-free map load.
func (r *Registry) lookup(key string, mk func() any) any {
	if m, ok := r.metrics.Load(key); ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics.Load(key); ok {
		return m
	}
	m := mk()
	r.metrics.Store(key, m)
	r.names = append(r.names, key)
	return m
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
	key := Name(family, labels...)
	m := r.lookup(key, func() any {
		b := append([]int64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		return &Histogram{bounds: b, counts: make([]paddedInt64, len(b)+1)}
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(kindMismatch(key))
	}
	return h
}

func kindMismatch(key string) string {
	return "obs: " + key + " already registered with a different kind"
}

// CounterValue reads a counter's merged total without creating it.
func (r *Registry) CounterValue(family string, labels ...string) int64 {
	if m, ok := r.metrics.Load(Name(family, labels...)); ok {
		if c, ok := m.(*Counter); ok {
			return c.Value()
		}
	}
	return 0
}

// GaugeValue reads a gauge without creating it.
func (r *Registry) GaugeValue(family string, labels ...string) int64 {
	if m, ok := r.metrics.Load(Name(family, labels...)); ok {
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
	r.mu.Lock()
	defer r.mu.Unlock()
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
	m := r.lookup(key, func() any { return &Counter{} })
	if c, ok := m.(*Counter); ok {
		return c
	}
	panic(kindMismatch(key))
}

func (r *Registry) lookupGaugeByKey(key string) *Gauge {
	m := r.lookup(key, func() any { return &Gauge{} })
	if g, ok := m.(*Gauge); ok {
		return g
	}
	panic(kindMismatch(key))
}

func (r *Registry) lookupHistogramByKey(key string, bounds []int64) *Histogram {
	m := r.lookup(key, func() any {
		return &Histogram{bounds: append([]int64(nil), bounds...), counts: make([]paddedInt64, len(bounds)+1)}
	})
	if h, ok := m.(*Histogram); ok {
		return h
	}
	panic(kindMismatch(key))
}
