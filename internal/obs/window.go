// The windowed-metrics layer of the telemetry plane (DESIGN §14): a
// Window samples a Registry on the virtual clock into a fixed-size ring
// of snapshots, from which it derives what an end-of-run snapshot cannot
// show — rates ("sheds per second, now"), deltas and rolling quantiles
// over the last few seconds of a run that may go on for hours.
//
// Sampling is caller-driven: the serve loop calls Advance with its
// virtual now, and the window takes one sample per crossed boundary.
// Nothing here reads wall clock, so two same-seed runs produce the same
// sample sequence, and the running digest over the canonical sample
// encodings is byte-identical — the property
// TestWindowDigestDeterministicAndSensitive and, over a whole serve run,
// tenant's TestServeObservedTelemetryDeterministic pin.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"sync"
	"time"
)

// Default window geometry: 4 samples per simulated second, ring of 32
// (an 8-second rolling view).
const (
	DefaultWindowEvery = 250 * time.Millisecond
	DefaultWindowSlots = 32
)

// WindowSample is one captured registry state: every counter, gauge and
// histogram at a virtual instant. Spans are deliberately excluded — they
// grow without bound and have their own export path.
type WindowSample struct {
	Seq        int              `json:"seq"`
	AtNS       int64            `json:"at_ns"`
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Counter returns the sampled value of a counter series (0 if absent).
func (s *WindowSample) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Histogram returns the sampled state of a histogram series.
func (s *WindowSample) Histogram(name string) (HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramPoint{}, false
}

// Window is a fixed-size ring of registry samples on the virtual clock.
// It is safe for concurrent use: the serve loop advances it while a
// scrape handler reads views.
type Window struct {
	mu      sync.Mutex
	reg     *Registry
	everyNS int64
	ring    []WindowSample // capacity slots, oldest first
	taken   int            // total samples ever taken
	nextNS  int64          // virtual time of the next sample boundary
	digest  hash.Hash
	before  []func(atNS int64)              // pre-sample hooks (gauge refresh)
	after   []func(cur, prev *WindowSample) // post-sample hooks (burn-rate)
}

// NewWindow builds a window over reg sampling every `every` of virtual
// time into a ring of `slots` samples. Non-positive arguments take the
// defaults.
func NewWindow(reg *Registry, every time.Duration, slots int) *Window {
	if every <= 0 {
		every = DefaultWindowEvery
	}
	if slots <= 0 {
		slots = DefaultWindowSlots
	}
	return &Window{
		reg:     reg,
		everyNS: int64(every),
		ring:    make([]WindowSample, 0, slots),
		nextNS:  int64(every),
		digest:  sha256.New(),
	}
}

// EveryNS returns the sampling interval in virtual nanoseconds.
func (w *Window) EveryNS() int64 { return w.everyNS }

// OnBeforeSample registers a hook called immediately before each sample
// is captured — the place to refresh gauges that are scanned rather than
// maintained (flash wear, RAM high-water). Hooks run on the advancing
// goroutine and must only touch the registry.
func (w *Window) OnBeforeSample(fn func(atNS int64)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.before = append(w.before, fn)
}

// OnSample registers a hook called after each sample with the new sample
// and its predecessor (nil for the first) — the seam the SLO burn-rate
// tracker rides. Hooks run on the advancing goroutine.
func (w *Window) OnSample(fn func(cur, prev *WindowSample)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.after = append(w.after, fn)
}

// Advance moves the window's virtual time to nowNS, taking one sample
// per crossed boundary, and returns how many samples were taken. When
// more boundaries elapsed than the ring holds, only the last ring-full
// is sampled (the skipped ones would all be identical and immediately
// evicted); the skip rule is a pure function of nowNS, so same-seed runs
// agree on the sample sequence.
func (w *Window) Advance(nowNS int64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if nowNS < w.nextNS {
		return 0
	}
	elapsed := (nowNS-w.nextNS)/w.everyNS + 1
	if skip := elapsed - int64(cap(w.ring)); skip > 0 {
		w.nextNS += skip * w.everyNS
		elapsed = int64(cap(w.ring))
	}
	n := 0
	for ; elapsed > 0; elapsed-- {
		w.sampleLocked(w.nextNS)
		w.nextNS += w.everyNS
		n++
	}
	return n
}

// SampleNow forces one sample at atNS regardless of boundaries — the
// end-of-run capture, so the final state is always in the window.
func (w *Window) SampleNow(atNS int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sampleLocked(atNS)
	if next := atNS + w.everyNS; next > w.nextNS {
		w.nextNS = next
	}
}

// sampleLocked captures one sample at atNS. Callers hold w.mu; the
// registry has its own synchronization, so hooks and Snapshot are safe.
func (w *Window) sampleLocked(atNS int64) {
	for _, fn := range w.before {
		fn(atNS)
	}
	snap := w.reg.Snapshot()
	w.taken++
	s := WindowSample{
		Seq:        w.taken,
		AtNS:       atNS,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	}
	var prev *WindowSample
	if len(w.ring) > 0 {
		prev = &w.ring[len(w.ring)-1]
	}
	if b, err := json.Marshal(s); err == nil {
		w.digest.Write(b)
	}
	for _, fn := range w.after {
		fn(&s, prev)
	}
	if len(w.ring) == cap(w.ring) {
		copy(w.ring, w.ring[1:])
		w.ring = w.ring[:len(w.ring)-1]
	}
	w.ring = append(w.ring, s)
}

// Samples returns how many samples have ever been taken.
func (w *Window) Samples() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.taken
}

// Digest returns the hex SHA-256 of every sample's canonical encoding in
// order — the byte-identity pin for same-seed runs.
func (w *Window) Digest() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return hex.EncodeToString(w.digest.Sum(nil))
}

// WindowRate is one counter series' movement across the window.
type WindowRate struct {
	Name  string `json:"name"`
	Delta int64  `json:"delta"`
	// RateMilli is events per second ×1000 over the window span, kept
	// integral so views stay deterministic.
	RateMilli int64 `json:"rate_milli"`
}

// WindowQuantile is one histogram's rolling latency profile: quantiles
// of only the observations that landed inside the window.
type WindowQuantile struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	SumNS int64  `json:"sum"`
	P50   int64  `json:"p50"`
	P99   int64  `json:"p99"`
	P999  int64  `json:"p999"`
}

// WindowView is the derived state of the window: rates and rolling
// quantiles between the oldest and newest retained samples, plus the
// newest gauge values. It is what /telemetry serves and pdsctl top
// renders.
type WindowView struct {
	FromNS  int64            `json:"from_ns"`
	ToNS    int64            `json:"to_ns"`
	Samples int              `json:"samples"` // total ever taken
	Held    int              `json:"held"`    // samples currently in the ring
	Rates   []WindowRate     `json:"rates"`
	Gauges  []GaugePoint     `json:"gauges"`
	Quants  []WindowQuantile `json:"quantiles"`
}

// Rate returns the windowed rate of one counter family (0 if absent).
func (v WindowView) Rate(name string) WindowRate {
	for _, r := range v.Rates {
		if r.Name == name {
			return r
		}
	}
	return WindowRate{Name: name}
}

// Gauge returns the newest value of one gauge (0 if absent).
func (v WindowView) Gauge(name string) int64 {
	for _, g := range v.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Quantile returns the rolling quantile row of one histogram.
func (v WindowView) Quantile(name string) (WindowQuantile, bool) {
	for _, q := range v.Quants {
		if q.Name == name {
			return q, true
		}
	}
	return WindowQuantile{}, false
}

// View derives the current windowed state. With no samples yet it
// returns a zero view; with one sample, deltas are against zero (the
// run started inside the window).
func (w *Window) View() WindowView {
	w.mu.Lock()
	defer w.mu.Unlock()
	var v WindowView
	v.Samples = w.taken
	v.Held = len(w.ring)
	if len(w.ring) == 0 {
		v.Rates = []WindowRate{}
		v.Gauges = []GaugePoint{}
		v.Quants = []WindowQuantile{}
		return v
	}
	newest := &w.ring[len(w.ring)-1]
	var oldest *WindowSample
	if len(w.ring) > 1 {
		oldest = &w.ring[0]
		v.FromNS = oldest.AtNS
	}
	v.ToNS = newest.AtNS
	spanNS := v.ToNS - v.FromNS
	v.Rates = make([]WindowRate, 0, len(newest.Counters))
	for _, c := range newest.Counters {
		d := c.Value
		if oldest != nil {
			d -= oldest.Counter(c.Name)
		}
		r := WindowRate{Name: c.Name, Delta: d}
		if spanNS > 0 {
			r.RateMilli = d * 1_000_000_000_000 / spanNS
		}
		v.Rates = append(v.Rates, r)
	}
	v.Gauges = append([]GaugePoint{}, newest.Gauges...)
	v.Quants = make([]WindowQuantile, 0, len(newest.Histograms))
	for _, h := range newest.Histograms {
		v.Quants = append(v.Quants, windowQuantile(h, oldest))
	}
	return v
}

// windowQuantile computes the rolling quantile row for one histogram:
// the bucket-wise delta between the newest and oldest samples, pushed
// through the same bucket-bound quantile estimator Histogram.Quantile
// uses, so windowed and lifetime percentiles share semantics.
func windowQuantile(cur HistogramPoint, oldest *WindowSample) WindowQuantile {
	bounds := make([]int64, 0, len(cur.Buckets))
	counts := make([]int64, len(cur.Buckets))
	for i, b := range cur.Buckets {
		if !b.Overflow {
			bounds = append(bounds, b.LE)
		}
		counts[i] = b.Count
	}
	q := WindowQuantile{Name: cur.Name, Count: cur.Count, SumNS: cur.Sum}
	if oldest != nil {
		if old, ok := oldest.Histogram(cur.Name); ok && len(old.Buckets) == len(cur.Buckets) {
			for i := range counts {
				counts[i] -= old.Buckets[i].Count
			}
			q.Count -= old.Count
			q.SumNS -= old.Sum
		}
	}
	q.P50, _ = quantileFromBuckets(bounds, counts, q.Count, 0.50)
	q.P99, _ = quantileFromBuckets(bounds, counts, q.Count, 0.99)
	q.P999, _ = quantileFromBuckets(bounds, counts, q.Count, 0.999)
	return q
}
