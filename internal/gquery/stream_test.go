package gquery

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pds/internal/netsim"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// TestStreamMatchesBatchSecureAgg: SecureAggStream over a generator
// answers what SecureAgg over the slice does and builds the same fold
// plane — the same tree depth, interior nodes and worker calls — at the
// chunk counts that hit the tree folder's edges: one leaf, exactly one
// full block (k), one leaf over (k+1), and one leaf over a full
// two-level tree (k²+1). Flat() is the one-level tree: one interior node
// over every leaf of a run with more than one chunk, none for a single
// chunk, whose leaf is the root and uploads no partial.
func TestStreamMatchesBatchSecureAgg(t *testing.T) {
	kr := mustKeyring(t)
	for _, topo := range []Topology{Flat(), Tree(2), Tree(4), Tree(16)} {
		k := topo.Arity()
		counts := []int{1, k, k + 1, k*k + 1}
		if topo.Arity() == 0 {
			counts = []int{1, 32}
		}
		for _, n := range counts {
			// One tuple per participant and chunk size 1: n chunks.
			parts := makeParts(n, 1, testDomain, int64(7+n))
			want := PlainResult(parts)
			net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			_, batch, err := New(WithTopology(topo)).SecureAgg(net, srv, parts, kr, 1)
			if err != nil {
				t.Fatalf("%v chunks=%d: batch: %v", topo, n, err)
			}
			for _, workers := range []int{1, 4} {
				net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
				eng := New(WithWorkers(workers), WithTopology(topo))
				res, stats, err := eng.SecureAggStream(net, srv, generate(parts), kr, 1)
				if err != nil {
					t.Fatalf("%v chunks=%d workers=%d: %v", topo, n, workers, err)
				}
				if !resultsEqual(res, want) {
					t.Fatalf("%v chunks=%d workers=%d: stream result diverges from ground truth", topo, n, workers)
				}
				if stats.Chunks != n || batch.Chunks != n {
					t.Fatalf("%v: chunks stream=%d batch=%d, want %d", topo, stats.Chunks, batch.Chunks, n)
				}
				if stats.TreeDepth != batch.TreeDepth || stats.TreeNodes != batch.TreeNodes || stats.WorkerCalls != batch.WorkerCalls {
					t.Fatalf("%v chunks=%d workers=%d: stream depth/nodes/calls %d/%d/%d, batch %d/%d/%d", topo, n, workers,
						stats.TreeDepth, stats.TreeNodes, stats.WorkerCalls, batch.TreeDepth, batch.TreeNodes, batch.WorkerCalls)
				}
				if n > 1 && (stats.TreeDepth < 2 || stats.TreeNodes == 0) {
					t.Fatalf("%v chunks=%d: tree shape missing: %+v", topo, n, stats)
				}
				if n == 1 && (stats.TreeDepth != 1 || stats.TreeNodes != 0 || stats.WorkerCalls != 0) {
					t.Fatalf("%v: a single chunk is its own root, got depth %d, %d nodes, %d worker calls",
						topo, stats.TreeDepth, stats.TreeNodes, stats.WorkerCalls)
				}
				if topo.Arity() == 0 && n > 1 && (stats.TreeDepth != 2 || stats.TreeNodes != 1) {
					t.Fatalf("flat stream: depth %d, %d nodes, want the one-level tree (2, 1)", stats.TreeDepth, stats.TreeNodes)
				}
			}
		}
	}
}

func TestStreamMatchesBatchOverShards(t *testing.T) {
	parts := makeParts(40, 2, testDomain, 11)
	kr := mustKeyring(t)
	want := PlainResult(parts)

	net := netsim.New()
	ss := ssi.NewShardSet(ssi.Servers(net, 3, ssi.HonestButCurious, ssi.Behavior{}))
	res, _, err := New(WithTopology(Tree(4))).SecureAggStream(net, ss, SliceSource(parts), kr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, want) {
		t.Fatal("sharded stream result diverges from ground truth")
	}
}

func TestStreamDetectsMaliciousSSI(t *testing.T) {
	parts := makeParts(31, 2, testDomain, 3)
	kr := mustKeyring(t)
	for name, b := range map[string]ssi.Behavior{
		"drop":      {DropRate: 0.2, Seed: 5},
		"duplicate": {DuplicateRate: 0.2, Seed: 6},
		"forge":     {ForgeRate: 0.2, Seed: 7},
	} {
		for _, topo := range []Topology{Flat(), Tree(4)} {
			net, srv := freshRun(t, ssi.WeaklyMalicious, b)
			_, _, err := New(WithTopology(topo)).SecureAggStream(net, srv, SliceSource(parts), kr, 4)
			var det *DetectionError
			if !errors.As(err, &det) {
				t.Fatalf("%s %v: expected DetectionError, got %v", name, topo, err)
			}
		}
	}
}

func TestStreamShardFailureDetected(t *testing.T) {
	parts := makeParts(30, 2, testDomain, 9)
	kr := mustKeyring(t)
	net := netsim.New()
	ss := ssi.NewShardSet(ssi.Servers(net, 4, ssi.HonestButCurious, ssi.Behavior{}))
	ss.Fail(1)
	_, _, err := New(WithTopology(Tree(4))).SecureAggStream(net, ss, SliceSource(parts), kr, 4)
	var det *DetectionError
	if !errors.As(err, &det) {
		t.Fatalf("expected DetectionError after shard failure, got %v", err)
	}
	if !errors.Is(err, ErrDetected) {
		t.Fatal("DetectionError should match ErrDetected")
	}
}

// Over a participant source the crossover of TestTreeCriticalPathBelowFlat
// holds too: on one tuple per participant at chunk size 4 it sits between
// 224 and 256 chunks for Tree(16) and between 800 and 864 for Tree(4).
func TestStreamTreeCriticalPathBelowFlat(t *testing.T) {
	kr := mustKeyring(t)
	run := func(topo Topology, chunks int) time.Duration {
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		parts := makeParts(4*chunks, 1, testDomain, 13)
		_, stats, err := New(WithTopology(topo)).SecureAggStream(net, srv, SliceSource(parts), kr, 4)
		if err != nil {
			t.Fatal(err)
		}
		return time.Duration(stats.CriticalPath.TotalNS)
	}
	for _, c := range []struct {
		topo        Topology
		under, over int // chunk counts either side of the crossover
	}{
		{Tree(16), 128, 512},
		{Tree(4), 512, 2048},
	} {
		if flat, tree := run(Flat(), c.under), run(c.topo, c.under); flat >= tree {
			t.Errorf("%d chunks: stream flat critical path (%v) not below %v (%v)", c.under, flat, c.topo, tree)
		}
		if flat, tree := run(Flat(), c.over), run(c.topo, c.over); tree >= flat {
			t.Errorf("%d chunks: stream %v critical path (%v) not below flat (%v)", c.over, c.topo, tree, flat)
		}
	}
}

// emitCounter wraps an Infra's emit callback to count the chunks
// the SSI hands to the fold plane, and records the largest number of
// emitted chunks not yet folded at the moment each one is emitted.
type emitCounter struct {
	Infra
	emitted, folded *atomic.Int64
	peak            int64
}

func (c *emitCounter) StartStream(chunkSize int, emit func(chunk []netsim.Envelope)) error {
	return c.Infra.StartStream(chunkSize, func(chunk []netsim.Envelope) {
		c.peak = max(c.peak, c.emitted.Add(1)-c.folded.Load())
		emit(chunk)
	})
}

// chunkCounter counts the chunk frames the SSI delivers to fold tokens:
// one per folded chunk.
type chunkCounter struct {
	tnet.Transport
	folded *atomic.Int64
}

func (c chunkCounter) Send(e netsim.Envelope) netsim.Envelope {
	if e.Kind == "chunk" {
		c.folded.Add(1)
	}
	return c.Transport.Send(e)
}

// TestStreamInFlightWindow backs SecureAggStream's memory bound with a
// count: over a fleet more than a hundred times the window, the chunks
// the SSI has emitted but no token has folded never exceed 3·workers+3
// (2·workers+2 queued, one in each worker's hands, one being handed
// over), so memory does not grow with the fleet.
func TestStreamInFlightWindow(t *testing.T) {
	const workers = 2
	const window = 3*workers + 3
	const fleet = 100*window + 100
	var emitted, folded atomic.Int64
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	infra := &emitCounter{Infra: srv, emitted: &emitted, folded: &folded}
	parts := makeParts(fleet, 1, testDomain, 17)
	res, stats, err := New(WithWorkers(workers), WithTopology(Flat())).
		SecureAggStream(chunkCounter{Transport: net, folded: &folded}, infra, generate(parts), mustKeyring(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, PlainResult(parts)) {
		t.Fatal("streaming aggregate differs from the plaintext one")
	}
	if n := int64(stats.Chunks); emitted.Load() != n || folded.Load() != n || n != fleet {
		t.Fatalf("emitted %d, folded %d, chunks %d; want %d each", emitted.Load(), folded.Load(), n, fleet)
	}
	if infra.peak > window || infra.peak < 1 {
		t.Fatalf("peak emitted−folded %d, want within [1, %d]", infra.peak, window)
	}
}
