package main

import (
	"fmt"
	"time"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/ssi"
	"pds/internal/workload"
)

// runE20 measures the hierarchical fold plane's scaling behaviour: the
// same streaming secure aggregation over fleets of 1e3 / 1e4 / 1e6 PDSs,
// flat vs fan-in tree. Two claims are on trial:
//
//   - the tree's simulated critical path grows ~log n (depth × fold cost)
//     while the flat plane's grows ~n (serial merge of every partial);
//   - flat and tree produce bit-identical aggregates at every size.
//
// The third, that memory stays bounded by the in-flight chunk window
// whatever the fleet size, is counted by gquery's
// TestStreamInFlightWindow: the fleet is generated, uploaded, folded and
// discarded without ever being materialized.
//
// (EXPERIMENTS.md discusses this study as E20.)
func runE20(cfg config) error {
	fleets := []int{1_000, 10_000, 1_000_000}
	if cfg.quick {
		fleets = []int{500, 5_000}
	}
	const chunk = 64
	kr, err := gquery.KeyringFrom(make([]byte, 32))
	if err != nil {
		return err
	}

	type row struct {
		res   gquery.Result
		stats gquery.RunStats
	}
	run := func(fleet int, topo gquery.Topology) (row, error) {
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		src := workload.ParticipantStream(fleet, 1, 42)
		res, stats, err := gquery.New(gquery.WithTopology(topo), gquery.WithObserver(cfg.obs)).
			SecureAggStream(net, srv, src, kr, chunk)
		return row{res: res, stats: stats}, err
	}

	fmt.Printf("-- streaming secure-agg, chunk=%d, 1 tuple/PDS: flat vs fan-in tree(16) --\n", chunk)
	w := newTab()
	fmt.Fprintln(w, "fleet\ttopology\tchunks\tdepth\tnodes\tmsgs\tsim-critical\texact")
	for _, fleet := range fleets {
		flat, err := run(fleet, gquery.Flat())
		if err != nil {
			return fmt.Errorf("E20 flat n=%d: %w", fleet, err)
		}
		tree, err := run(fleet, gquery.Tree(16))
		if err != nil {
			return fmt.Errorf("E20 tree n=%d: %w", fleet, err)
		}
		// Flat and tree must agree everywhere; against ground truth too
		// where the fleet is small enough to materialize.
		exact := resultsMatch(flat.res, tree.res)
		if fleet <= 10_000 {
			truth := gquery.PlainResult(workload.Participants(fleet, 1, 42))
			exact = exact && resultsMatch(flat.res, truth) && resultsMatch(tree.res, truth)
		}
		if !exact {
			return fmt.Errorf("E20 n=%d: flat/tree aggregates diverge", fleet)
		}
		for _, r := range []struct {
			topo string
			row
		}{{"flat", flat}, {"tree(16)", tree}} {
			crit := time.Duration(r.stats.CriticalPath.TotalNS)
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%v\t%v\n",
				fleet, r.topo, r.stats.Chunks, r.stats.TreeDepth, r.stats.TreeNodes,
				r.stats.Net.Messages, crit.Round(time.Millisecond), exact)
		}
	}
	w.Flush()
	fmt.Println("\n  flat sim-critical grows ~n (serial merge tail); tree grows ~log n (depth × fold cost).")
	fmt.Println("  chunks in flight are bounded by the fold window, not the fleet size.")
	return nil
}

// resultsMatch reports whether two aggregate results are identical.
func resultsMatch(a, b gquery.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for g, agg := range a {
		if b[g] != agg {
			return false
		}
	}
	return true
}
