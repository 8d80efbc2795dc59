package gquery

import (
	"errors"
	"fmt"
	"testing"

	"pds/internal/ssi"
)

// Tree topologies must produce exactly the flat (and ground-truth)
// result for every protocol: GroupAgg.Merge is associative and
// commutative and the checksum sums are order-free, so the fan-in
// structure is invisible in the answer.
func TestTreeTopologyMatchesFlat(t *testing.T) {
	kr := mustKeyring(t)
	parts := makeParts(37, 4, testDomain, 7)
	want := PlainResult(parts)
	buckets, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []Topology{Tree(2), Tree(3), Tree(16)} {
		for _, workers := range []int{1, 4} {
			eng := New(WithWorkers(workers), WithTopology(topo))

			net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			res, stats, err := eng.SecureAgg(net, srv, parts, kr, 5)
			if err != nil {
				t.Fatalf("%v w=%d secure-agg: %v", topo, workers, err)
			}
			if !resultsEqual(res, want) {
				t.Fatalf("%v w=%d secure-agg result diverged from ground truth", topo, workers)
			}
			if stats.TreeDepth < 2 || stats.TreeNodes == 0 {
				t.Fatalf("%v w=%d secure-agg: tree shape not recorded: depth=%d nodes=%d",
					topo, workers, stats.TreeDepth, stats.TreeNodes)
			}

			net, srv = freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			res, _, err = eng.Noise(net, srv, parts, kr, testDomain, 0.5, WhiteNoise, 11)
			if err != nil {
				t.Fatalf("%v w=%d noise: %v", topo, workers, err)
			}
			if !resultsEqual(res, want) {
				t.Fatalf("%v w=%d noise result diverged from ground truth", topo, workers)
			}

			net, srv = freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			br, _, err := eng.Histogram(net, srv, parts, kr, buckets)
			if err != nil {
				t.Fatalf("%v w=%d histogram: %v", topo, workers, err)
			}
			flatNet, flatSrv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			flatBr, _, err := New().Histogram(flatNet, flatSrv, parts, kr, buckets)
			if err != nil {
				t.Fatal(err)
			}
			if len(br) != len(flatBr) {
				t.Fatalf("%v w=%d histogram bucket sets differ", topo, workers)
			}
			for bkt, agg := range flatBr {
				if br[bkt] != agg {
					t.Fatalf("%v w=%d histogram bucket %d: got %+v want %+v", topo, workers, bkt, br[bkt], agg)
				}
			}
		}
	}
}

// Every topology is a fan-in tree; Flat() is the one-level tree whose
// root takes every partial in one frame. That frame grows with the chunk
// count, while a bounded tree pays a merge hop per level, so neither
// wins everywhere. On this workload (two tuples per participant, chunk
// size 4) the measured crossover sits between 224 and 256 chunks for
// Tree(16) and between 800 and 864 for Tree(4). Each tree's critical
// path must sit above flat's well under its crossover and below it well
// over it.
func TestTreeCriticalPathBelowFlat(t *testing.T) {
	kr := mustKeyring(t)
	runs := map[string]RunStats{}
	run := func(topo Topology, chunks int) RunStats {
		key := fmt.Sprintf("%v/%d", topo, chunks)
		if s, ok := runs[key]; ok {
			return s
		}
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		_, stats, err := New(WithTopology(topo)).SecureAgg(net, srv, makeParts(2*chunks, 2, testDomain, 3), kr, 4)
		if err != nil {
			t.Fatal(err)
		}
		runs[key] = stats
		return stats
	}
	// The fold phase holds the whole reduce (leaf folds, every merge hop);
	// the merge phase only the verdict.
	reduce := func(s RunStats) int64 { return phaseChain(s, PhaseTokenFold) + phaseChain(s, PhaseMerge) }
	for _, c := range []struct {
		topo        Topology
		under, over int // chunk counts either side of the crossover
	}{
		{Tree(16), 128, 512},
		{Tree(4), 512, 2048},
	} {
		flat, tree := run(Flat(), c.under), run(c.topo, c.under)
		if flat.CriticalPath.TotalNS >= tree.CriticalPath.TotalNS {
			t.Errorf("%d chunks: flat critical path %d ns not below %v %d ns",
				c.under, flat.CriticalPath.TotalNS, c.topo, tree.CriticalPath.TotalNS)
		}
		flat, tree = run(Flat(), c.over), run(c.topo, c.over)
		if tree.CriticalPath.TotalNS >= flat.CriticalPath.TotalNS {
			t.Errorf("%d chunks: %v critical path %d ns not below flat %d ns",
				c.over, c.topo, tree.CriticalPath.TotalNS, flat.CriticalPath.TotalNS)
		}
		if ft, fl := reduce(tree), reduce(flat); ft <= 0 || fl <= 0 || ft >= fl {
			t.Errorf("%d chunks: fold + merge chains: %v %d ns vs flat %d ns", c.over, c.topo, ft, fl)
		}
	}
}

// Deeper trees pay more levels: the fold makespan must grow with the
// fleet roughly like log n, which shows up as a sub-linear ratio when
// the fleet size is squared.
func TestTreeMakespanGrowsSublinearly(t *testing.T) {
	kr := mustKeyring(t)
	run := func(n int) int64 {
		parts := makeParts(n, 1, testDomain, 9)
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		_, stats, err := New(WithTopology(Tree(4))).SecureAgg(net, srv, parts, kr, 2)
		if err != nil {
			t.Fatal(err)
		}
		return stats.CriticalPath.TotalNS
	}
	small, big := run(32), run(1024)
	// 32× the fleet. Collection stays per-token-parallel and the tree
	// grows by ~log: anything close to linear (say, >8×) is a failure.
	if big >= 8*small {
		t.Fatalf("tree critical path grew ~linearly: n=32 → %d ns, n=1024 → %d ns", small, big)
	}
}

// A weakly-malicious SSI must still be detected through the tree: drops
// and duplicates break the checksum sums that interior merges preserve,
// forgeries break MACs at the leaves.
func TestTreeDetectsMaliciousSSI(t *testing.T) {
	kr := mustKeyring(t)
	parts := makeParts(24, 3, testDomain, 5)
	for _, b := range []ssi.Behavior{
		{DropRate: 0.2, Seed: 41},
		{DuplicateRate: 0.3, Seed: 42},
		{ForgeRate: 0.25, Seed: 43},
	} {
		net, srv := freshRun(t, ssi.WeaklyMalicious, b)
		_, _, err := New(WithTopology(Tree(3))).SecureAgg(net, srv, parts, kr, 4)
		var det *DetectionError
		if !errors.As(err, &det) {
			t.Fatalf("behavior %+v: want DetectionError, got %v", b, err)
		}
	}
}
