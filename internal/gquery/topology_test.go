package gquery

import (
	"errors"
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

// The tree run's critical path must be strictly below the flat run's on
// the same workload: the flat merge tail is O(chunks) serial, the tree
// schedule's makespan is O(chunk + arity·log chunks).
func TestTreeCriticalPathBelowFlat(t *testing.T) {
	kr := mustKeyring(t)
	parts := makeParts(256, 2, testDomain, 3)

	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	_, flat, err := New().SecureAgg(net, srv, parts, kr, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, srv = freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	_, tree, err := New(WithTopology(Tree(4))).SecureAgg(net, srv, parts, kr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tree.CriticalPath.TotalNS >= flat.CriticalPath.TotalNS {
		t.Fatalf("tree critical path %d ns not below flat %d ns",
			tree.CriticalPath.TotalNS, flat.CriticalPath.TotalNS)
	}
	// The tree's fold phase holds the whole reduce; the flat run's reduce
	// is its fold phase plus the serial merge at one token. The tree's
	// must sit below it.
	reduce := func(s RunStats) int64 { return phaseChain(s, PhaseTokenFold) + phaseChain(s, PhaseMerge) }
	if ft, fl := reduce(tree), reduce(flat); ft <= 0 || fl <= 0 || ft >= fl {
		t.Fatalf("fold + merge chains: tree %d ns vs flat %d ns", ft, fl)
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
