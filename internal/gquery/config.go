package gquery

import (
	"runtime"
	"sync"

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
	// the zero value is the flat historical round trip (one final merge
	// token), Tree(k) folds partials up a k-ary tree of interior tokens
	// so the merge plane is O(log n) deep. Results are identical either
	// way: GroupAgg.Merge is associative and commutative, and the
	// checksum sums are order-free.
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

// forEachChunk runs f(0..n-1) across the configured token fleet. With one
// worker it runs inline in index order — byte-identical to the historical
// serial loop. Callers collect per-index outputs and fold them in index
// order, so the fan-out never changes observable results.
func (c config) forEachChunk(n int, f func(i int)) {
	w := c.fleet(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// chunkOutcome is the per-chunk output of a worker token, folded into
// RunStats and the partial list in deterministic chunk order. sealed
// feeds the tree reduce: the partial's wire form.
type chunkOutcome struct {
	partial     partialAgg
	sealed      []byte
	worker      string
	macFailures int
	err         error
}
