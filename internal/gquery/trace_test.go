package gquery

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
)

// spanIndex maps a snapshot's span list for ancestry walks.
type spanIndex struct {
	byID map[int]obs.SpanRecord
}

func indexSpans(spans []obs.SpanRecord) spanIndex {
	ix := spanIndex{byID: make(map[int]obs.SpanRecord, len(spans))}
	for _, sp := range spans {
		ix.byID[sp.ID] = sp
	}
	return ix
}

// ancestor returns the nearest ancestor (strict) satisfying pred, or a
// zero record.
func (ix spanIndex) ancestor(sp obs.SpanRecord, pred func(obs.SpanRecord) bool) (obs.SpanRecord, bool) {
	for sp.Parent != 0 {
		p, ok := ix.byID[sp.Parent]
		if !ok {
			return obs.SpanRecord{}, false
		}
		if pred(p) {
			return p, true
		}
		sp = p
	}
	return obs.SpanRecord{}, false
}

// tracedSecureAgg runs one clean secure-agg under a fresh registry and
// returns the registry and stats.
func tracedSecureAgg(t *testing.T, cfg config) (*obs.Registry, RunStats) {
	t.Helper()
	parts := makeParts(16, 4, testDomain, 31)
	kr := mustKeyring(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	reg := obs.NewRegistry()
	cfg.observer = reg
	_, stats, err := runSecureAgg(net, srv, SliceSource(parts), kr, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, stats
}

// TestSecureAggTraceCausality: in a serial run every token-fold span must
// be causally parented (through any number of wire spans) to the
// ssi-dispatch of the same chunk — the acceptance assertion of the
// cross-node tracing layer. The SSI dispatches each chunk as the uploads
// stream in, so the dispatch lives under the collect-encrypt phase of the
// gquery/secure-agg root, as does the SSI's ssi/partition span, and no
// dispatch is a phase of its own.
func TestSecureAggTraceCausality(t *testing.T) {
	reg, stats := tracedSecureAgg(t, config{workers: 1})
	spans := reg.Snapshot().Spans
	ix := indexSpans(spans)
	var phases []string
	for _, ph := range stats.CriticalPath.Phases {
		phases = append(phases, ph.Name)
	}
	if want := []string{PhaseCollect, PhasePartition, PhaseTokenFold, PhaseMerge}; !slices.Equal(phases, want) {
		t.Errorf("critical-path phases %v, want %v", phases, want)
	}

	var root obs.SpanRecord
	var folds, dispatches []obs.SpanRecord
	var server obs.SpanRecord
	for _, sp := range spans {
		switch {
		case sp.Name == "gquery/secure-agg":
			root = sp
		case sp.Name == PhaseTokenFold && sp.Attrs["chunk"] != "":
			folds = append(folds, sp)
		case sp.Name == "ssi-dispatch":
			dispatches = append(dispatches, sp)
		case sp.Name == "ssi/partition":
			server = sp
		}
	}
	if root.ID == 0 {
		t.Fatal("no gquery/secure-agg root span")
	}
	if len(folds) == 0 || len(dispatches) == 0 {
		t.Fatalf("folds=%d dispatches=%d, want both > 0", len(folds), len(dispatches))
	}
	collect, ok := ix.byID[server.Parent]
	if server.ID == 0 || !ok || collect.Name != PhaseCollect || collect.Parent != root.ID {
		t.Error("no ssi/partition server span under the collect-encrypt phase")
	}
	if len(folds) != len(dispatches) {
		t.Errorf("folds=%d dispatches=%d, want equal (one fold per chunk)", len(folds), len(dispatches))
	}
	for _, fold := range folds {
		disp, ok := ix.ancestor(fold, func(p obs.SpanRecord) bool { return p.Name == "ssi-dispatch" })
		if !ok {
			t.Errorf("token-fold chunk=%s has no ssi-dispatch ancestor", fold.Attrs["chunk"])
			continue
		}
		if disp.Attrs["chunk"] != fold.Attrs["chunk"] {
			t.Errorf("token-fold chunk=%s parented under dispatch chunk=%s",
				fold.Attrs["chunk"], disp.Attrs["chunk"])
		}
		if disp.Parent != collect.ID {
			t.Errorf("ssi-dispatch chunk=%s not under the collect-encrypt phase", disp.Attrs["chunk"])
		}
	}
}

// TestSecureAggCriticalPathEqualsLongestChain: the reported critical-path
// total must equal the span tree's longest dependency chain — for the
// serial run that is exactly the root span's duration, and recomputing
// over the merged snapshot must agree with the stats the run returned.
func TestSecureAggCriticalPathEqualsLongestChain(t *testing.T) {
	reg, stats := tracedSecureAgg(t, config{workers: 1})
	spans := reg.Snapshot().Spans
	var root obs.SpanRecord
	for _, sp := range spans {
		if sp.Name == "gquery/secure-agg" {
			root = sp
		}
	}
	if root.ID == 0 {
		t.Fatal("no root span")
	}
	if rootDur := root.EndNS - root.StartNS; stats.CriticalPath.TotalNS != rootDur {
		t.Errorf("CriticalPath.TotalNS = %d, want root duration %d", stats.CriticalPath.TotalNS, rootDur)
	}
	if stats.CriticalPath.TotalNS <= 0 {
		t.Error("critical path total is zero — the clock never advanced")
	}
	if got := obs.ComputeCriticalPath(spans).TotalNS; got != stats.CriticalPath.TotalNS {
		t.Errorf("recomputed total %d != reported %d", got, stats.CriticalPath.TotalNS)
	}
	// Serial identity: the phases tile the root, so their chains sum to it.
	var phaseSum int64
	for _, ph := range stats.CriticalPath.Phases {
		phaseSum += ph.ChainNS
	}
	if phaseSum != stats.CriticalPath.TotalNS {
		t.Errorf("phase chains sum to %d, want %d\nphases: %+v",
			phaseSum, stats.CriticalPath.TotalNS, stats.CriticalPath.Phases)
	}
	// The registry mirrors the same totals as counters.
	if got := reg.CounterValue(MetricCriticalNS); got != stats.CriticalPath.TotalNS {
		t.Errorf("%s = %d, want %d", MetricCriticalNS, got, stats.CriticalPath.TotalNS)
	}
}

// TestWorkers4TraceExportsIdentically is the canonicalization golden: a
// clean Workers=4 fleet run must export byte-identical snapshots (metrics
// AND spans) across repetitions, even though raw span ids are minted in
// racy goroutine order.
func TestWorkers4TraceExportsIdentically(t *testing.T) {
	parts := makeParts(24, 4, testDomain, 33)
	kr := mustKeyring(t)
	var snaps, traces [][]byte
	for i := 0; i < 3; i++ {
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		reg := obs.NewRegistry()
		cfg := config{workers: 4, observer: reg}
		if _, _, err := runSecureAgg(net, srv, SliceSource(parts), kr, 6, cfg); err != nil {
			t.Fatal(err)
		}
		js, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, js)
		pf, err := reg.Snapshot().PerfettoJSON()
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, pf)
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Fatalf("Workers=4 snapshot %d differs from run 0:\n%s\n---\n%s", i, snaps[0], snaps[i])
		}
		if !bytes.Equal(traces[0], traces[i]) {
			t.Fatalf("Workers=4 Perfetto export %d differs from run 0", i)
		}
	}
}

// TestFaultyTraceAttributesRetransmitsToTransfers: under an armed fault
// plane every reliability event — retransmit, backoff, ack, duplicate
// delivery — must hang off the "xfer:*" span of the transfer that
// incurred it, and the retransmit event count must equal the run's
// retransmit counter.
func TestFaultyTraceAttributesRetransmitsToTransfers(t *testing.T) {
	parts := makeParts(20, 4, testDomain, 35)
	kr := mustKeyring(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	reg := obs.NewRegistry()
	cfg := config{workers: 1}
	cfg.observer = reg
	cfg.faults = &netsim.FaultPlan{Seed: 305,
		Default: netsim.FaultSpec{Drop: 0.15, Duplicate: 0.1, Delay: 0.05, Reorder: 0.05}}
	_, stats, err := runSecureAgg(net, srv, SliceSource(parts), kr, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retransmits == 0 {
		t.Fatal("fault plan produced no retransmits — test is vacuous")
	}
	spans := reg.Snapshot().Spans
	ix := indexSpans(spans)
	events := map[string]int{}
	for _, sp := range spans {
		switch sp.Name {
		case "retransmit", "backoff", "dup-delivery", "ack":
			events[sp.Name]++
			p, ok := ix.byID[sp.Parent]
			if !ok || !strings.HasPrefix(p.Name, "xfer:") {
				t.Errorf("%s event parented under %q, want an xfer:* span", sp.Name, p.Name)
			}
		}
	}
	if events["retransmit"] != stats.Retransmits {
		t.Errorf("retransmit events = %d, counter says %d", events["retransmit"], stats.Retransmits)
	}
	if events["ack"] == 0 {
		t.Error("no ack events recorded")
	}
	// Fault-path causality: folds still trace back to their dispatch
	// through the transfer span.
	for _, sp := range spans {
		if sp.Name != PhaseTokenFold || sp.Attrs["chunk"] == "" {
			continue
		}
		disp, ok := ix.ancestor(sp, func(p obs.SpanRecord) bool { return p.Name == "ssi-dispatch" })
		if !ok || disp.Attrs["chunk"] != sp.Attrs["chunk"] {
			t.Errorf("faulty-path token-fold chunk=%s lost its dispatch ancestry", sp.Attrs["chunk"])
		}
	}
}

// TestPhaseMetricsSurviveMerge: the per-phase critical-path counters must
// be present on the engine observer after the run-local registry merges.
func TestPhaseMetricsSurviveMerge(t *testing.T) {
	// Covered in internal/smc; here we only pin the gquery-side phase
	// metric families stay registered for the merge. The partition phase
	// itself is zero-duration (no leg is sent in it, so no node's timeline
	// moves), so the timed check uses the fold phase.
	reg, _ := tracedSecureAgg(t, config{workers: 1})
	if reg.CounterValue(MetricPhaseChainNS, "phase", PhaseTokenFold) <= 0 {
		t.Errorf("%s{phase=%s} missing after merge", MetricPhaseChainNS, PhaseTokenFold)
	}
}
