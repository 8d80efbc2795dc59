package gquery

import (
	"runtime"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// config parameterizes the execution engine of the Part III protocols;
// it is set only through New's options. The protocols' token-side phases
// (decrypt, fold, discard fakes) are embarrassingly parallel across
// chunks — [TNP14] explicitly models the participant tokens as an
// independent worker fleet behind the SSI — so the engine fans them out
// over a bounded pool. Results and RunStats are identical for every pool
// size: partials are merged in deterministic chunk order.
type config struct {
	// workers bounds the simulated token fleet: 0 means GOMAXPROCS,
	// 1 (New's default) is the faithful paper baseline, one token at a
	// time.
	workers int

	// faults, when non-nil, arms the netsim fault plane with this seeded
	// schedule and routes every protocol leg over reliable ARQ links
	// (sequence numbers, integrity tags, ack/retry with backoff). Nil — the
	// default — keeps the historical direct wire: byte-identical costs to
	// the pre-reliability engine.
	faults *netsim.FaultPlan
	// maxRetries bounds retransmissions per frame when faults is set;
	// <= 0 selects netsim.DefaultMaxRetries.
	maxRetries int

	// topology selects the fan-in structure of the aggregation plane:
	// the zero value is the flat one-level tree (one merging token takes
	// every partial in one frame), Tree(k) folds partials up a k-ary tree
	// of interior tokens so the merge plane is O(log n) deep. Results are
	// identical either way: GroupAgg.Merge is associative and
	// commutative, and the checksum sums are order-free.
	topology Topology

	// observer, when non-nil, receives the run's metrics and spans merged
	// in at the end of the run. Every run records into a run-local
	// registry regardless, so RunStats derivation does not depend on this
	// being set.
	observer *obs.Registry
}

// fleet resolves the effective pool size for n independent work items.
func (c config) fleet(n int) int {
	w := c.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
