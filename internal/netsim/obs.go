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
// links, caching the counters they bump: the unlabeled families in fixed
// slots, the labeled series in maps under a read-write lock. A series is
// registered the first time it is counted, so a family no event reached
// stays out of the registry.
//
// The observer is attached to its registry (obs.Registry.Attachment) and
// outlives the registry's resets: a series keeps its canonical name and
// its counter, and the first count after a reset registers it again by
// that name, which builds no name and allocates nothing.
type netObserver struct {
	reg      *obs.Registry
	messages series
	bytes    series
	rels     [len(relFamilies)]series

	mu     sync.RWMutex
	kinds  map[string]*kindSeries
	faults map[faultSeries]*series
}

// series is one counter the observer bumps: its canonical name, and the
// counter with the registry epoch it was last registered in.
type series struct {
	name  string
	c     atomic.Pointer[obs.Counter]
	epoch atomic.Uint64
}

// add bumps the series by d, registering it first if this is its first
// count in the registry's current epoch.
func (s *series) add(reg *obs.Registry, d int64) {
	s.counter(reg).Add(d)
}

// counter returns the series' counter, registered in the current epoch.
func (s *series) counter(reg *obs.Registry) *obs.Counter {
	c, e := s.c.Load(), reg.Epoch()
	if c == nil || s.epoch.Load() != e {
		// The registry keeps a reset series' counter, so this is the
		// same counter every time; Counter of a canonical name builds
		// none.
		c = reg.Counter(s.name)
		s.c.Store(c)
		s.epoch.Store(e)
	}
	return c
}

// kindSeries is the pair of per-kind traffic series an envelope bumps.
type kindSeries struct{ messages, bytes series }

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

// observerKey is the key the bridge is attached to a registry under.
type observerKey struct{}

// observerOf returns reg's bridge, attaching a new one the first time,
// with the message and byte totals registered (nil for a nil registry).
func observerOf(reg *obs.Registry) *netObserver {
	if reg == nil {
		return nil
	}
	o := reg.Attachment(observerKey{}, func() any {
		o := &netObserver{
			reg:    reg,
			kinds:  map[string]*kindSeries{},
			faults: map[faultSeries]*series{},
		}
		o.messages.name, o.bytes.name = MetricMessages, MetricBytes
		for f, fam := range relFamilies {
			o.rels[f].name = fam
		}
		return o
	}).(*netObserver)
	o.messages.counter(reg)
	o.bytes.counter(reg)
	return o
}

// bind returns m's entry for k, making it with mk the first time.
func bind[K comparable, V any](mu *sync.RWMutex, m map[K]V, k K, mk func() V) V {
	mu.RLock()
	v, ok := m[k]
	mu.RUnlock()
	if ok {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v, ok := m[k]; ok {
		return v
	}
	v = mk()
	m[k] = v
	return v
}

// record mirrors one sent envelope.
func (o *netObserver) record(e Envelope) {
	n := int64(len(e.Payload))
	o.messages.add(o.reg, 1)
	o.bytes.add(o.reg, n)
	ks := bind(&o.mu, o.kinds, e.Kind, func() *kindSeries {
		ks := &kindSeries{}
		ks.messages.name = obs.Name(MetricKindMessages, "kind", e.Kind)
		ks.bytes.name = obs.Name(MetricKindBytes, "kind", e.Kind)
		return ks
	})
	ks.messages.add(o.reg, 1)
	ks.bytes.add(o.reg, n)
}

// fault mirrors one injected fault decision.
func (o *netObserver) fault(action, kind string) {
	if o == nil {
		return
	}
	bind(&o.mu, o.faults, faultSeries{action, kind}, func() *series {
		return &series{name: obs.Name(MetricFaults, "fault", action, "kind", kind)}
	}).add(o.reg, 1)
}

// rel mirrors one reliability-layer counter bump.
func (o *netObserver) rel(f relFamily, d int64) {
	if o == nil {
		return
	}
	o.rels[f].add(o.reg, d)
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
	o := observerOf(reg)
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
