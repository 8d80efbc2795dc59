package gquery

import (
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
	tnet "pds/internal/transport"
)

// Protocol-level metric families. Together with the netsim_* families the
// network mirrors while a run's registry is attached, they make RunStats
// fully derivable from an obs snapshot.
const (
	MetricChunks      = "gquery_chunks_total"
	MetricWorkerCalls = "gquery_worker_calls_total"
	MetricMACFailures = "gquery_mac_failures_total"
	MetricFakeTuples  = "gquery_fake_tuples_total"
	MetricDetected    = "gquery_detected_total"

	// Critical-path families, derived from the finished span tree: total
	// longest-chain time and parallel slack for the run, and the same pair
	// per protocol phase (labeled "phase").
	MetricCriticalNS      = "gquery_critical_path_ns_total"
	MetricCriticalSlackNS = "gquery_critical_slack_ns_total"
	MetricPhaseChainNS    = "gquery_phase_chain_ns_total"
	MetricPhaseSlackNS    = "gquery_phase_slack_ns_total"
)

// Span names of the protocol phases, in execution order.
const (
	PhaseCollect   = "collect-encrypt"
	PhasePartition = "ssi-partition"
	PhaseTokenFold = "token-fold"
	PhaseMerge     = "merge-verify"
)

// runObs scopes one protocol run's observability: a run-local registry is
// installed as the network's observer for the duration of the run, so the
// netsim_* counters it accumulates belong to exactly this run; at detach
// the previous observer is restored and the run's metrics are merged into
// it (and into the engine's WithObserver registry). Span time advances
// only at phase barriers, by each phase's makespan over the per-node
// timelines the transport keeps.
type runObs struct {
	wire tnet.Transport
	reg  *obs.Registry // run-local
	prev *obs.Registry // network observer before the run
	user *obs.Registry // engine observer (nil, or possibly == prev)
	cost netsim.CostModel

	root   *obs.Span
	cur    *obs.Span
	phases map[string]*obs.Span // phase name -> its span (written at phase barriers only)
	ended  bool                 // root/cur spans closed
	done   bool
}

func newRunObs(w tnet.Transport, user *obs.Registry, proto string) *runObs {
	ro := &runObs{
		wire: w,
		reg:  obs.NewRegistry(),
		prev: w.Observer(),
		user: user,
		cost: netsim.DefaultCostModel(),
	}
	w.SetObserver(ro.reg)
	ro.root = ro.reg.Tracer().Start("gquery/"+proto, nil)
	ro.cur = ro.reg.Tracer().Start(PhaseCollect, ro.root)
	ro.phases = map[string]*obs.Span{PhaseCollect: ro.cur}
	return ro
}

// phase closes the current phase span after its makespan — the phase's
// work ran on overlapping per-node timelines whose longest is makespan —
// and opens the next.
func (ro *runObs) phase(name string, makespan time.Duration) {
	ro.reg.Clock().Advance(makespan)
	ro.cur.End()
	ro.cur = ro.reg.Tracer().Start(name, ro.root)
	ro.phases[name] = ro.cur
}

// curCtx is the wire context of the current phase span — the default
// causal parent for envelopes sent during the phase.
func (ro *runObs) curCtx() obs.SpanContext { return ro.cur.Context() }

// span opens a named span under the given phase's span (falling back to
// the run root), annotated with alternating key/value pairs. Safe from
// fleet workers: the phases map is only written at phase barriers.
func (ro *runObs) span(name, phase string, attrs ...string) *obs.Span {
	parent := ro.phases[phase]
	if parent == nil {
		parent = ro.root
	}
	sp := ro.reg.Tracer().Start(name, parent)
	annotate(sp, attrs)
	return sp
}

// remoteSpan opens a span whose parent arrived as a wire context — the
// receive side of a cross-node hop.
func (ro *runObs) remoteSpan(name string, ctx obs.SpanContext, attrs ...string) *obs.Span {
	sp := ro.reg.Tracer().StartRemote(name, ctx)
	annotate(sp, attrs)
	return sp
}

func annotate(sp *obs.Span, attrs []string) {
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.Annotate(attrs[i], attrs[i+1])
	}
}

// closeSpans ends the current phase and root spans (once).
func (ro *runObs) closeSpans() {
	if ro.ended {
		return
	}
	ro.ended = true
	ro.cur.End()
	ro.root.End()
}

// finish closes the last phase after its makespan, mirrors the protocol
// outcome into counters and re-derives the cost side of RunStats — wire
// traffic and reliability overhead — from the run registry instead of the
// legacy per-struct accounting.
func (ro *runObs) finish(stats *RunStats, makespan time.Duration) {
	ro.reg.Clock().Advance(makespan)
	ro.closeSpans()
	reg := ro.reg
	reg.Counter(MetricChunks).Add(int64(stats.Chunks))
	reg.Counter(MetricWorkerCalls).Add(int64(stats.WorkerCalls))
	reg.Counter(MetricMACFailures).Add(int64(stats.MACFailures))
	reg.Counter(MetricFakeTuples).Add(int64(stats.FakeTuples))
	if stats.Detected {
		reg.Counter(MetricDetected).Inc()
	}
	stats.Net = netsim.Stats{Messages: reg.CounterValue(netsim.MetricMessages), Bytes: reg.CounterValue(netsim.MetricBytes)}
	stats.Retransmits = int(reg.CounterValue(netsim.MetricRelRetrans))
	stats.AckMessages = int(reg.CounterValue(netsim.MetricRelAcks))
	stats.TagFailures = int(reg.CounterValue(netsim.MetricRelTagFail))
	stats.RetryBackoff = time.Duration(reg.CounterValue(netsim.MetricRelBackoffNS))

	// With the run's spans closed, walk the causal DAG for the critical
	// path and mirror it into counters so the breakdown survives merges.
	cp := reg.Tracer().CriticalPath()
	stats.CriticalPath = cp
	reg.Counter(MetricCriticalNS).Add(cp.TotalNS)
	reg.Counter(MetricCriticalSlackNS).Add(cp.SlackNS)
	for _, ph := range cp.Phases {
		reg.Counter(MetricPhaseChainNS, "phase", ph.Name).Add(ph.ChainNS)
		reg.Counter(MetricPhaseSlackNS, "phase", ph.Name).Add(ph.SlackNS)
	}
}

// detach ends the run's observability epoch: close open spans, hand the
// network back to the pre-run observer, and roll the run's metrics up into
// it and the engine's registry. Idempotent; runs on every exit path.
func (ro *runObs) detach() {
	if ro.done {
		return
	}
	ro.done = true
	ro.closeSpans()
	ro.wire.SetObserver(ro.prev)
	if ro.prev != nil {
		ro.prev.Merge(ro.reg)
	}
	if ro.user != nil && ro.user != ro.prev {
		ro.user.Merge(ro.reg)
	}
}
