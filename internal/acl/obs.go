// Observability bridge for the policy layer: a guard optionally mirrors
// every access decision into an obs registry and verifies its audit chain
// under a span, so the Part I accountability signals line up with the
// Part III protocol traces on one timeline.
package acl

import (
	"strconv"
	"sync/atomic"
	"time"

	"pds/internal/obs"
)

// Metric families the guard emits on an attached registry.
const (
	// MetricDecisions counts access decisions, labeled allowed="true"|"false".
	MetricDecisions = "acl_decisions_total"
	// MetricAuditEntries counts entries appended to the audit chain.
	MetricAuditEntries = "acl_audit_entries_total"
)

// obsHook is the guard's (optional, swappable) link into the
// observability plane: the attached registry and the guard's series in
// it, bound on first use so that a series exists only once its event has
// happened.
type obsHook struct {
	bound atomic.Pointer[boundHook]
}

type boundHook struct {
	reg       *obs.Registry
	decisions [2]atomic.Pointer[obs.Counter] // allowed = false, true
	entries   atomic.Pointer[obs.Counter]
}

// registry returns the attached registry, nil if none.
func (h *obsHook) registry() *obs.Registry {
	if b := h.bound.Load(); b != nil {
		return b.reg
	}
	return nil
}

// note mirrors one decision into the attached registry, if any.
func (h *obsHook) note(allowed bool) {
	b := h.bound.Load()
	if b == nil {
		return
	}
	i := 0
	if allowed {
		i = 1
	}
	c := b.decisions[i].Load()
	if c == nil {
		c = b.reg.Counter(MetricDecisions, "allowed", strconv.FormatBool(allowed))
		b.decisions[i].Store(c)
	}
	c.Inc()
	n := b.entries.Load()
	if n == nil {
		n = b.reg.Counter(MetricAuditEntries)
		b.entries.Store(n)
	}
	n.Inc()
}

// Observe attaches a metrics registry to the guard (nil detaches): every
// subsequent Check is counted under acl_decisions_total{allowed} and
// acl_audit_entries_total, and the audit log adopts the registry's
// simulated clock so audited timelines align with protocol traces.
func (g *Guard) Observe(reg *obs.Registry) {
	if reg != nil {
		g.hook.bound.Store(&boundHook{reg: reg})
		g.Audit.UseSimClock(reg.Clock())
	} else {
		g.hook.bound.Store(nil)
		g.Audit.SetClock(nil)
	}
}

// VerifyChain verifies the guard's audit chain, recording the check as an
// "acl/verify-chain" span on the attached registry (plain Verify when none
// is attached). It returns the index of the first broken entry, -1 if the
// chain is intact.
func (g *Guard) VerifyChain() int {
	entries := g.Audit.Entries()
	var sp *obs.Span
	if reg := g.hook.registry(); reg != nil {
		sp = reg.Tracer().Start("acl/verify-chain", nil)
		sp.Annotate("entries", strconv.Itoa(len(entries)))
	}
	bad := Verify(entries)
	sp.Annotate("intact", strconv.FormatBool(bad < 0))
	sp.End()
	return bad
}

// UseSimClock drives the audit clock from a simulated trace clock: entry
// times become offsets from the Unix epoch, matching span timestamps
// nanosecond for nanosecond.
func (l *AuditLog) UseSimClock(c *obs.SimClock) {
	l.SetClock(func() time.Time { return time.Unix(0, 0).UTC().Add(c.Now()) })
}
