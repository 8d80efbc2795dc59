package gquery

import (
	"sync"
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
//
// The run registry comes from runRegistries and goes back there, reset,
// at detach: what the run keeps (RunStats, the merged registries) is
// copied out of it first, and nothing outside the run — the wire, the
// engine, the SSI — holds it after, so the next run can take it.
type runObs struct {
	wire tnet.Transport
	reg  *obs.Registry // run-local
	prev *obs.Registry // network observer before the run
	user *obs.Registry // engine observer (nil, or possibly == prev)
	cost netsim.CostModel

	root  *obs.Span
	cur   *obs.Span // the open phase
	ended bool      // root/cur spans closed
	done  bool
}

// runRegistries recycles run registries. A recycled registry snapshots
// as a fresh one (obs.Registry.Reset) but keeps its series, its span
// lists and the netsim observer bridge attached to it, so a run
// re-registers the series of the last one without allocating them.
var runRegistries = sync.Pool{New: func() any { return obs.NewRegistry() }}

// phaseSeries holds the per-phase critical-path series names of the
// protocol phases, built once per process.
var phaseSeries = func() map[string][2]string {
	m := map[string][2]string{}
	for _, ph := range []string{PhaseCollect, PhasePartition, PhaseTokenFold, PhaseMerge} {
		m[ph] = [2]string{obs.Name(MetricPhaseChainNS, "phase", ph), obs.Name(MetricPhaseSlackNS, "phase", ph)}
	}
	return m
}()

// phaseNames returns the chain and slack series names of a phase.
func phaseNames(phase string) (chain, slack string) {
	if n, ok := phaseSeries[phase]; ok {
		return n[0], n[1]
	}
	return obs.Name(MetricPhaseChainNS, "phase", phase), obs.Name(MetricPhaseSlackNS, "phase", phase)
}

func newRunObs(w tnet.Transport, user *obs.Registry, proto string) *runObs {
	ro := &runObs{
		wire: w,
		reg:  runRegistries.Get().(*obs.Registry),
		prev: w.Observer(),
		user: user,
		cost: netsim.DefaultCostModel(),
	}
	w.SetObserver(ro.reg)
	ro.root = ro.reg.Tracer().Start("gquery/"+proto, nil)
	ro.cur = ro.reg.Tracer().Start(PhaseCollect, ro.root)
	return ro
}

// phase closes the current phase span after its makespan — the phase's
// work ran on overlapping per-node timelines whose longest is makespan —
// and opens the next.
func (ro *runObs) phase(name string, makespan time.Duration) {
	ro.reg.Clock().Advance(makespan)
	ro.cur.End()
	ro.cur = ro.reg.Tracer().Start(name, ro.root)
}

// curCtx is the wire context of the current phase span — the default
// causal parent for envelopes sent during the phase.
func (ro *runObs) curCtx() obs.SpanContext { return ro.cur.Context() }

// span opens a named span under the open phase, annotated with
// alternating key/value pairs. Safe from fleet workers: the open phase
// changes only at phase barriers, when no worker runs.
func (ro *runObs) span(name string, attrs ...string) *obs.Span {
	sp := ro.reg.Tracer().Start(name, ro.cur)
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
// outcome into counters and derives the cost side of RunStats — wire
// traffic and reliability overhead — from the run registry, the wire's
// one ledger.
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
	net, rel := netsim.Counted(reg)
	stats.Net, stats.Retransmits, stats.AckMessages, stats.TagFailures, stats.RetryBackoff =
		net, rel.Retransmits, rel.Acks, rel.TagFailures, rel.Backoff

	// With the run's spans closed, walk the causal DAG for the critical
	// path and mirror it into counters so the breakdown survives merges.
	cp := reg.Tracer().CriticalPath()
	stats.CriticalPath = cp
	reg.Counter(MetricCriticalNS).Add(cp.TotalNS)
	reg.Counter(MetricCriticalSlackNS).Add(cp.SlackNS)
	for _, ph := range cp.Phases {
		chain, slack := phaseNames(ph.Name)
		reg.Counter(chain).Add(ph.ChainNS)
		reg.Counter(slack).Add(ph.SlackNS)
	}
}

// detach ends the run's observability epoch: close open spans, hand the
// network back to the pre-run observer, roll the run's metrics up into it
// and the engine's registry, and return the run registry to the pool.
// Idempotent; runs on every exit path.
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
	ro.reg.Reset()
	runRegistries.Put(ro.reg)
	ro.reg, ro.root, ro.cur = nil, nil, nil
}
