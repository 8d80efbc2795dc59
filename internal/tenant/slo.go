package tenant

import (
	"sync"

	"pds/internal/obs"
)

// SLO burn-rate tracking (DESIGN §14): each class has an error budget —
// the fraction of requests allowed to be "bad" (shed, or slower than
// the latency target). The tracker rides the telemetry window's sample
// hook, computes each class's bad fraction over the window interval,
// and expresses it as a burn rate: budget consumption speed relative to
// plan, ×1000. Burn 1000 means exactly on budget; 4000 means the class
// exhausts a month's budget in a week. Crossing alertBurnMilli fires a
// typed obs alert.
const (
	// MetricBurn is the per-class burn-rate gauge (×1000).
	MetricBurn = "tenant_burn_milli"
	// AlertSLOBurn is the alert family fired on budget overrun.
	AlertSLOBurn = "slo_burn"
)

// The per-class error budget.
const (
	// latencyTargetNS is the "fast enough" threshold: 16.384 ms, a
	// LatencyBounds bound, so the over-target count is exact.
	latencyTargetNS = 1000 << 14
	// budgetMilli is the error budget as a fraction ×1000: 1% of
	// requests may be bad.
	budgetMilli = 10
	// alertBurnMilli is the burn rate ×1000 at or above which the class
	// alerts: burning budget 4× faster than plan.
	alertBurnMilli = 4000
	// minWindowTotal suppresses burn math on windows with fewer requests
	// than this — one bad request out of two is not a statement about
	// the SLO.
	minWindowTotal = 20
)

// ClassBurn is one class's budget state over the latest window.
type ClassBurn struct {
	Class string `json:"class"`
	// Total/Bad are the window's request count and bad-request count
	// (sheds + over-latency-target completions).
	Total int64 `json:"total"`
	Bad   int64 `json:"bad"`
	// BurnMilli is the burn rate ×1000 (bad fraction / budget).
	BurnMilli int64 `json:"burn_milli"`
	// Alerts counts how many windows have fired for this class so far.
	Alerts int64 `json:"alerts"`
}

// BurnTracker computes per-class burn rates from window samples. Wire
// it with Attach; reads are safe concurrently with sampling.
type BurnTracker struct {
	reg *obs.Registry

	mu    sync.Mutex
	burns [NumClasses]ClassBurn
}

// NewBurnTracker builds a tracker updating gauges and alerts in reg.
func NewBurnTracker(reg *obs.Registry) *BurnTracker {
	b := &BurnTracker{reg: reg}
	for c := Class(0); c < NumClasses; c++ {
		b.burns[c].Class = c.String()
	}
	return b
}

// Attach registers the tracker on a window's sample hook.
func (b *BurnTracker) Attach(w *obs.Window) {
	w.OnSample(b.observe)
}

// Burns returns the latest per-class budget state.
func (b *BurnTracker) Burns() []ClassBurn {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]ClassBurn(nil), b.burns[:]...)
}

// observe runs once per window sample, on the sampling goroutine.
func (b *BurnTracker) observe(cur, prev *obs.WindowSample) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for c := Class(0); c < NumClasses; c++ {
		name := c.String()
		var total, shed int64
		for _, d := range []Decision{DecisionAdmit, DecisionQueued, DecisionShed} {
			key := obs.Name(MetricClassRequests, "class", name, "decision", d.String())
			delta := cur.Counter(key)
			if prev != nil {
				delta -= prev.Counter(key)
			}
			total += delta
			if d == DecisionShed {
				shed += delta
			}
		}
		slow := b.overTarget(cur, name)
		if prev != nil {
			slow -= b.overTarget(prev, name)
		}
		bad := shed + slow
		cb := &b.burns[c]
		cb.Total, cb.Bad = total, bad
		if total < minWindowTotal {
			cb.BurnMilli = 0
			continue
		}
		cb.BurnMilli = bad * 1_000_000 / (total * budgetMilli)
		b.reg.Gauge(MetricBurn, "class", name).Set(cb.BurnMilli)
		if cb.BurnMilli >= alertBurnMilli {
			cb.Alerts++
			b.reg.Alert(cur.AtNS, cb.BurnMilli, AlertSLOBurn, "class", name)
		}
	}
}

// overTarget counts the sample's latency observations above the target,
// exactly: the target is a bucket bound.
func (b *BurnTracker) overTarget(s *obs.WindowSample, class string) int64 {
	h, ok := s.Histogram(obs.Name(MetricLatency, "class", class))
	if !ok {
		return 0
	}
	var n int64
	for _, bk := range h.Buckets {
		if bk.Overflow || bk.LE > latencyTargetNS {
			n += bk.Count
		}
	}
	return n
}
