// Observer bridge: when a registry is attached, every envelope, injected
// fault and reliability-layer event is counted in obs counters. The
// per-kind traffic and fault counts live only here; Network.Stats and
// Link.Stats keep the totals programs read without a registry. One
// bridge serves a registry's network, its fault plane and every link on
// it, and binds each series once, the first time it is counted, so the
// hot paths never build a series name or look one up by it.
package netsim

import (
	"sync"
	"sync/atomic"

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

// netObserver binds one registry to a network, its fault plane and its
// links, caching the counters they bump: the reliability families in
// fixed slots, the labeled series in maps under a read-write lock. A
// series is registered the first time it is counted, so a family no
// event reached stays out of the registry.
type netObserver struct {
	reg      *obs.Registry
	messages *obs.Counter
	bytes    *obs.Counter
	rels     [len(relFamilies)]atomic.Pointer[obs.Counter]

	mu     sync.RWMutex
	kinds  map[string]kindSeries
	faults map[faultSeries]*obs.Counter
}

// kindSeries is the pair of per-kind traffic series an envelope bumps.
type kindSeries struct{ messages, bytes *obs.Counter }

// faultSeries names one MetricFaults series.
type faultSeries struct{ action, kind string }

// relFamily indexes the reliability-layer families.
type relFamily int

const (
	relTransfers relFamily = iota
	relRetrans
	relAcks
	relTagFail
	relBackoffNS
)

var relFamilies = [...]string{MetricRelTransfers, MetricRelRetrans, MetricRelAcks, MetricRelTagFail, MetricRelBackoffNS}

func newNetObserver(reg *obs.Registry) *netObserver {
	if reg == nil {
		return nil
	}
	return &netObserver{
		reg:      reg,
		messages: reg.Counter(MetricMessages),
		bytes:    reg.Counter(MetricBytes),
		kinds:    map[string]kindSeries{},
		faults:   map[faultSeries]*obs.Counter{},
	}
}

// bind returns m's entry for k, making it with mk the first time.
func bind[K comparable, V any](mu *sync.RWMutex, m map[K]V, k K, mk func() V) V {
	mu.RLock()
	v, ok := m[k]
	mu.RUnlock()
	if ok {
		return v
	}
	v = mk()
	mu.Lock()
	m[k] = v
	mu.Unlock()
	return v
}

// record mirrors one sent envelope.
func (o *netObserver) record(e Envelope) {
	o.messages.Inc()
	o.bytes.Add(int64(len(e.Payload)))
	ks := bind(&o.mu, o.kinds, e.Kind, func() kindSeries {
		return kindSeries{o.reg.Counter(MetricKindMessages, "kind", e.Kind), o.reg.Counter(MetricKindBytes, "kind", e.Kind)}
	})
	ks.messages.Inc()
	ks.bytes.Add(int64(len(e.Payload)))
}

// fault mirrors one injected fault decision.
func (o *netObserver) fault(action, kind string) {
	if o == nil {
		return
	}
	bind(&o.mu, o.faults, faultSeries{action, kind}, func() *obs.Counter {
		return o.reg.Counter(MetricFaults, "fault", action, "kind", kind)
	}).Inc()
}

// rel mirrors one reliability-layer counter bump.
func (o *netObserver) rel(f relFamily, d int64) {
	if o == nil {
		return
	}
	c := o.rels[f].Load()
	if c == nil {
		c = o.reg.Counter(relFamilies[f])
		o.rels[f].Store(c)
	}
	c.Add(d)
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
// into it through one bridge, which the network, its fault plane and
// every link on it share; an already-installed fault plane is re-bound.
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
