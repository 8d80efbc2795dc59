package gquery

import (
	"strings"
	"sync"
	"time"

	"pds/internal/netsim"
	tnet "pds/internal/transport"
)

// transport routes protocol envelopes over the pluggable wire (the
// in-process simulator or the TCP substrate — the engine cannot tell).
// With no fault plan it is the historical direct path — wire.Send for cost
// accounting, synchronous delivery — so clean runs stay byte-identical to
// the pre-reliability engine. With a plan it arms the wire's fault
// plane and moves every leg through per-kind reliable ARQ links, whose
// cost is folded into RunStats at the end of the run.
type transport struct {
	wire tnet.Transport
	rel  netsim.Reliability
	on   bool
	prev *netsim.FaultPlane // the wire's plane before this run armed its own
	ro   *runObs

	mu     sync.Mutex
	links  map[string]*netsim.Link
	ledger map[string]leg // the current phase's per-node timelines (see send)
}

// leg is what one node's timeline has been charged in the current phase:
// its wire attempts, priced by the clean cost model, plus the ARQ backoff
// it waited out before retransmitting.
type leg struct {
	wire    netsim.Stats
	backoff time.Duration
}

func (l leg) time(m netsim.CostModel) time.Duration { return l.wire.Time(m) + l.backoff }

// newTransport opens one run's wire epoch: the run-local observer registry
// is installed first so the fault plane armed below binds to it and every
// injected fault of this run is attributed to this run.
func newTransport(w tnet.Transport, cfg config, proto string) *transport {
	tp := &transport{wire: w, links: map[string]*netsim.Link{}, ledger: map[string]leg{}, ro: newRunObs(w, cfg.observer, proto)}
	if cfg.faults != nil {
		tp.on = true
		tp.rel = netsim.Reliability{MaxRetries: cfg.maxRetries}
		tp.prev = w.Faults()
		w.SetFaults(netsim.NewFaultPlane(*cfg.faults))
	}
	return tp
}

// close ends the run's fault and observability epochs: the plane this run
// armed (and whatever envelopes it still withholds) is detached from the
// network and the pre-run plane restored, so a later caller delivering on
// the same Network does not inherit a stale fault schedule; the run's
// metrics are rolled up into the pre-run and engine registries.
func (tp *transport) close() {
	if tp.on {
		tp.wire.SetFaults(tp.prev)
	}
	tp.ro.detach()
}

// phase closes the current phase at its slowest node — every node is its
// own serial resource, all running side by side — and opens the next.
func (tp *transport) phase(name string) { tp.ro.phase(name, tp.makespan()) }

// phasePar closes the current phase at a makespan the caller laid out
// itself (a tree or streaming schedule placed from the ledger's charges);
// whatever the ledger still holds is discarded.
func (tp *transport) phasePar(name string, makespan time.Duration) {
	tp.makespan()
	tp.ro.phase(name, makespan)
}

// makespan returns the slowest node's time in the current phase and
// opens an empty ledger for the next.
func (tp *transport) makespan() time.Duration {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var m time.Duration
	for _, l := range tp.ledger {
		m = max(m, l.time(tp.ro.cost))
	}
	clear(tp.ledger)
	return m
}

// elapsed returns one node's time so far in the current phase; take also
// forgets it, so a node placed once (a streaming PDS or leaf, an interior
// tree token) leaves nothing behind.
func (tp *transport) elapsed(node string, take bool) time.Duration {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	l := tp.ledger[node]
	if take {
		delete(tp.ledger, node)
	}
	return l.time(tp.ro.cost)
}

// finish closes the last phase at its slowest node and derives the cost
// side of RunStats from the run's registry.
func (tp *transport) finish(stats *RunStats) { tp.ro.finish(stats, tp.makespan()) }

// linkKey scopes a reliable link: per envelope kind, and additionally
// per SSI shard when the destination names one ("ssi:<i>"), so each
// shard's ARQ sequence space — and therefore its retry schedule — stays
// disjoint from its siblings', giving every shard its own fault plane.
func linkKey(e netsim.Envelope) string {
	if strings.HasPrefix(e.To, "ssi:") {
		return e.Kind + "@" + e.To
	}
	return e.Kind
}

// link returns the reliable link carrying one link key, creating it
// on first use. Per-key links keep sequence spaces disjoint, mirroring
// the per-kind fault schedules.
func (tp *transport) link(kind string) *netsim.Link {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	l, ok := tp.links[kind]
	if !ok {
		l = netsim.NewLink(tp.wire, tp.rel)
		tp.links[kind] = l
	}
	return l
}

// send moves one envelope; rcv (optional) observes the delivered copy
// exactly once. On the direct path it never fails; on the reliable path
// it returns the link's typed *netsim.RetryError when the retry budget is
// exhausted.
//
// The leg is charged to its token end — the sender, or the receiving
// token when the SSI sends — because the SSI is never the bottleneck:
// every attempt costs that node one message of the payload under the
// clean cost model, and the ARQ backoff between attempts delays it too.
func (tp *transport) send(e netsim.Envelope, rcv func(netsim.Envelope)) error {
	if e.Ctx.IsZero() {
		e.Ctx = tp.ro.curCtx()
	}
	var cost netsim.RelStats
	var err error
	if !tp.on {
		out := tp.wire.Send(e)
		if rcv != nil {
			rcv(out)
		}
	} else {
		cost, err = tp.link(linkKey(e)).TransferCost(e, rcv)
	}
	node := e.From
	if node == "ssi" {
		node = e.To
	}
	attempts := int64(1 + cost.Retransmits)
	tp.mu.Lock()
	l := tp.ledger[node]
	l.wire.Messages += attempts
	l.wire.Bytes += attempts * int64(len(e.Payload))
	l.backoff += cost.Backoff
	tp.ledger[node] = l
	tp.mu.Unlock()
	return err
}

// barrier is a protocol phase boundary: delayed envelopes surface here, in
// the plane's seeded order. Data frames are deduplicated against their
// link (a delayed copy whose retransmission already arrived is absorbed)
// and fresh ones handed to rcv; stray ack frames are discarded.
func (tp *transport) barrier(rcv func(netsim.Envelope)) {
	if !tp.on {
		return
	}
	tp.wire.FlushFaults(func(e netsim.Envelope) {
		if strings.HasSuffix(e.Kind, "/ack") {
			return
		}
		tp.link(linkKey(e)).Accept(e, rcv)
	})
}
