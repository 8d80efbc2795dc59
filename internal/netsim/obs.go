// Observer bridge: when a registry is attached, every envelope, injected
// fault and reliability-layer event is counted in obs counters. The
// per-kind traffic and fault counts live only here; Network.Stats and
// Link.Stats keep the totals programs read without a registry. The bridge
// caches resolved counters so the hot Send path stays lock-free.
package netsim

import (
	"sync"

	"pds/internal/obs"
)

// Metric families the network emits. Per-kind traffic carries a "kind"
// label; fault counts carry "fault" and "kind".
const (
	MetricMessages     = "netsim_messages_total"
	MetricBytes        = "netsim_bytes_total"
	MetricKindMessages = "netsim_kind_messages_total"
	MetricKindBytes    = "netsim_kind_bytes_total"
	MetricFaults       = "netsim_faults_total"
	MetricRelTransfers = "netsim_rel_transfers_total"
	MetricRelRetrans   = "netsim_rel_retransmits_total"
	MetricRelAcks      = "netsim_rel_acks_total"
	MetricRelTagFail   = "netsim_rel_tag_failures_total"
	MetricRelBackoffNS = "netsim_rel_backoff_ns_total"
)

// netObserver binds a registry to one network, caching counters.
type netObserver struct {
	reg      *obs.Registry
	messages *obs.Counter
	bytes    *obs.Counter

	kindMsgs  sync.Map // kind -> *obs.Counter
	kindBytes sync.Map // kind -> *obs.Counter

	fmu    sync.Mutex
	faults map[faultSeries]*obs.Counter
}

// faultSeries names one MetricFaults series.
type faultSeries struct{ action, kind string }

func newNetObserver(reg *obs.Registry) *netObserver {
	if reg == nil {
		return nil
	}
	return &netObserver{
		reg:      reg,
		messages: reg.Counter(MetricMessages),
		bytes:    reg.Counter(MetricBytes),
		faults:   map[faultSeries]*obs.Counter{},
	}
}

// record mirrors one sent envelope.
func (o *netObserver) record(e Envelope) {
	o.messages.Inc()
	o.bytes.Add(int64(len(e.Payload)))
	m, ok := o.kindMsgs.Load(e.Kind)
	if !ok {
		m, _ = o.kindMsgs.LoadOrStore(e.Kind, o.reg.Counter(MetricKindMessages, "kind", e.Kind))
	}
	m.(*obs.Counter).Inc()
	b, ok := o.kindBytes.Load(e.Kind)
	if !ok {
		b, _ = o.kindBytes.LoadOrStore(e.Kind, o.reg.Counter(MetricKindBytes, "kind", e.Kind))
	}
	b.(*obs.Counter).Add(int64(len(e.Payload)))
}

// fault mirrors one injected fault decision.
func (o *netObserver) fault(action, kind string) {
	if o == nil {
		return
	}
	o.fmu.Lock()
	c := o.faults[faultSeries{action, kind}]
	if c == nil {
		c = o.reg.Counter(MetricFaults, "fault", action, "kind", kind)
		o.faults[faultSeries{action, kind}] = c
	}
	o.fmu.Unlock()
	c.Inc()
}

// rel mirrors one reliability-layer counter bump.
func (o *netObserver) rel(family string, d int64) {
	if o == nil {
		return
	}
	o.reg.Counter(family).Add(d)
}

// startSpan opens a span on the attached registry under a wire context
// (nil observer -> nil span; obs.Span methods tolerate nil).
func (o *netObserver) startSpan(name string, ctx obs.SpanContext) *obs.Span {
	if o == nil {
		return nil
	}
	return o.reg.Tracer().StartRemote(name, ctx)
}

// event records an instantaneous span under a wire context.
func (o *netObserver) event(name string, ctx obs.SpanContext) {
	if o == nil {
		return
	}
	o.reg.Tracer().Event(name, ctx)
}

// SetObserver attaches (or, with nil, detaches) a metrics registry. All
// subsequent traffic, fault decisions and reliability events are mirrored
// into it; an already-installed fault plane is re-bound.
func (n *Network) SetObserver(reg *obs.Registry) {
	o := newNetObserver(reg)
	n.obsv.Store(o)
	if fp := n.faults.Load(); fp != nil {
		fp.obsv.Store(o)
	}
}

// Observer returns the attached registry, or nil.
func (n *Network) Observer() *obs.Registry {
	if o := n.obsv.Load(); o != nil {
		return o.reg
	}
	return nil
}
