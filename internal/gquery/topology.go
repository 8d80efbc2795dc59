package gquery

import (
	"fmt"
	"strconv"
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// DefaultTreeArity is the fan-in of Tree(0): wide enough that the tree
// stays shallow (a million tokens fold in five levels), narrow enough
// that no interior token ever holds more than a handful of partials.
const DefaultTreeArity = 16

// Topology selects the fan-in structure of the token fleet's
// aggregation plane. The zero value is the flat historical round trip:
// every worker token uploads its partial and a single final token
// merges all of them — an O(n) serial tail. Tree(k) folds partials up a
// k-ary tree of interior tokens instead: each interior token merges at
// most k children and forwards one sealed partial upward, so the merge
// plane is O(log_k n) deep and the critical path scales with the depth,
// not the fleet.
type Topology struct {
	arity int
}

// Flat is the historical single-merge-token topology.
func Flat() Topology { return Topology{} }

// Tree arranges the fold plane as a k-ary fan-in tree; arity < 2
// selects DefaultTreeArity.
func Tree(arity int) Topology {
	if arity < 2 {
		arity = DefaultTreeArity
	}
	return Topology{arity: arity}
}

// IsTree reports whether the topology is hierarchical.
func (t Topology) IsTree() bool { return t.arity >= 2 }

// Arity returns the tree fan-in (0 for the flat topology).
func (t Topology) Arity() int { return t.arity }

func (t Topology) String() string {
	if !t.IsTree() {
		return "flat"
	}
	return fmt.Sprintf("tree(%d)", t.arity)
}

// treeNode is a fold-plane node during the level-by-level reduce.
type treeNode struct {
	partial partialAgg
	sealed  []byte
	worker  string
	start   time.Duration
	end     time.Duration
}

// reduceTree folds the leaf partials up the k-ary fan-in tree over the
// wire and lays the fold plane out in virtual time. The model is the
// paper's asymmetric architecture: every token is its own serial
// resource while the SSI routing plane is never the bottleneck, so
// independent folds overlap and a node starts when its last child's
// partial has arrived. Each tree edge is a real protocol hop — the
// parent token MAC-verifies, decrypts and merges each child partial, so
// integrity checking happens at every level, not only at the root.
//
// Leaves and interior nodes are placed from the same ledger charges that
// close every other phase. reduceTree closes the fold phase at the
// root's end — no node ends later — and returns the single root partial.
func (tp *transport) reduceTree(kr *Keyring, parts []Participant, leaves []leafPartial, arity int, stats *RunStats) ([]partialAgg, error) {
	base := tp.ro.reg.Clock().Now()
	tracer := tp.ro.reg.Tracer()
	foldPhase := tp.ro.phases[PhaseTokenFold]

	if len(leaves) == 0 {
		tp.phasePar(PhaseMerge, 0)
		return nil, nil
	}

	cur := make([]treeNode, len(leaves))
	for i, lf := range leaves {
		sealed := lf.sealed
		if sealed == nil {
			// A leaf whose flat protocol had no reason to upload its
			// partial (the noise protocol's forged batch) still must ride
			// up the tree: seal it here.
			var err error
			if sealed, err = sealedPartial(kr)(&chunkOutcome{partial: lf.partial}); err != nil {
				return nil, err
			}
		}
		cur[i] = treeNode{partial: lf.partial, sealed: sealed, worker: lf.worker, end: lf.end}
	}
	emitLevel(tracer, foldPhase, base, 0, cur)

	depth := 1
	for level := 1; len(cur) > 1; level++ {
		depth++
		next := make([]treeNode, 0, (len(cur)+arity-1)/arity)
		for j := 0; j*arity < len(cur); j++ {
			hi := (j + 1) * arity
			if hi > len(cur) {
				hi = len(cur)
			}
			children := cur[j*arity : hi]
			// Interior workers are drawn from the participant pool like
			// leaf workers: the SSI re-enrolls tokens it already knows.
			worker := parts[(level*131+j)%len(parts)].ID
			node, err := tp.foldTreeNode(kr, worker, children, stats)
			if err != nil {
				return nil, err
			}
			next = append(next, node)
			stats.WorkerCalls++
			stats.TreeNodes++
		}
		emitLevel(tracer, foldPhase, base, level, next)
		cur = next
	}
	stats.TreeDepth = depth
	tp.phasePar(PhaseMerge, cur[0].end)
	return []partialAgg{cur[0].partial}, nil
}

// foldTreeNode runs one interior token: receive each child's sealed
// partial via the SSI, verify + decrypt + merge it, and upload one
// sealed merged partial. Virtual time: the node starts when its last
// child result is available and then pays what its own receives and
// send charged to its timeline, retries and backoff included.
func (tp *transport) foldTreeNode(kr *Keyring, worker string, children []treeNode, stats *RunStats) (treeNode, error) {
	out := chunkOutcome{worker: worker, partial: partialAgg{Aggs: map[string]GroupAgg{}}}
	node := treeNode{worker: worker}
	tp.elapsed(worker, true) // what the token did before (a leaf, another node) is already placed
	for _, c := range children {
		if c.end > node.start {
			node.start = c.end
		}
		sendErr := tp.send(netsim.Envelope{From: "ssi", To: worker, Kind: "tree-partial", Payload: c.sealed},
			func(e netsim.Envelope) {
				ct, err := open(kr, e.Payload)
				if err != nil {
					out.macFailures++
					return
				}
				pt, err := kr.NonDet.Decrypt(ct)
				if err != nil {
					out.macFailures++
					return
				}
				p, err := decodePartial(pt)
				if err != nil {
					out.err = err
					return
				}
				out.partial.IDSum += p.IDSum
				out.partial.Count += p.Count
				for g, a := range p.Aggs {
					out.partial.Aggs[g] = out.partial.Aggs[g].Merge(a)
				}
			})
		if sendErr != nil && out.err == nil {
			out.err = sendErr
		}
		if out.err != nil {
			return node, out.err
		}
	}
	stats.MACFailures += out.macFailures
	if out.macFailures > 0 {
		stats.Detected = true
	}
	sealed, err := sealedPartial(kr)(&out)
	if err != nil {
		return node, err
	}
	if err := tp.send(netsim.Envelope{From: worker, To: "ssi", Kind: "partial", Payload: sealed}, nil); err != nil {
		return node, err
	}
	node.partial = out.partial
	node.sealed = sealed
	node.end = node.start + tp.elapsed(worker, true)
	return node, nil
}

// emitLevel lays one tree level out as explicit-time spans under the
// fold phase: a "tree-level" band spanning the level's active interval,
// with one "tree-fold" child per node — the shape the critical-path
// analyzer and the Perfetto export surface as the log-n staircase.
func emitLevel(tracer *obs.Tracer, foldPhase *obs.Span, base time.Duration, level int, nodes []treeNode) {
	if len(nodes) == 0 {
		return
	}
	lo, hi := nodes[0].start, nodes[0].end
	for _, n := range nodes[1:] {
		if n.start < lo {
			lo = n.start
		}
		if n.end > hi {
			hi = n.end
		}
	}
	lvl := tracer.StartAt("tree-level", foldPhase, base+lo)
	lvl.Annotate("level", strconv.Itoa(level))
	lvl.Annotate("nodes", strconv.Itoa(len(nodes)))
	for i, n := range nodes {
		sp := tracer.StartAt("tree-fold", lvl, base+n.start)
		sp.Annotate("level", strconv.Itoa(level))
		sp.Annotate("node", strconv.Itoa(i))
		sp.Annotate("worker", n.worker)
		sp.EndAt(base + n.end)
	}
	lvl.EndAt(base + hi)
}
