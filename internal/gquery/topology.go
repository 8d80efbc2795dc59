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

// treeNode is one fold-plane node: a token's partial, its wire form,
// which token holds it, and — in fold-phase-relative virtual time — when
// the token started on it and when the partial is available to a parent.
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
func (r *run) reduceTree(leaves []treeNode) ([]partialAgg, error) {
	// Interior workers are drawn from the participant pool like leaf
	// workers: the SSI re-enrolls tokens it already knows.
	f := r.treeFolder(func(level, j int) string { return r.parts[(level*131+j)%len(r.parts)].ID })
	for _, lf := range leaves {
		if lf.sealed == nil {
			// A leaf whose flat protocol had no reason to upload its
			// partial (the noise protocol's forged batch) still must ride
			// up the tree: seal it here.
			var err error
			if lf.sealed, err = sealNonDet(r.kr, nil, encodePartial(lf.partial)); err != nil {
				return nil, err
			}
		}
		if err := f.push(0, lf); err != nil {
			return nil, err
		}
	}
	partials, end, err := f.root()
	if err != nil {
		return nil, err
	}
	f.layout()
	r.tp.phasePar(PhaseMerge, end)
	return partials, nil
}

// treeFolder builds the fan-in tree push by push, for the batch and the
// streaming executor alike: a node joins its level, and a filled block
// of arity nodes folds at once into one node of the level above, so
// every level is cut into the same contiguous blocks however the leaves
// arrive. It holds at most arity-1 pending nodes per level,
// O(arity·log n) in all.
type treeFolder struct {
	r     *run
	arity int
	name  func(level, j int) string // the interior token of node j at level
	merge envProcessor

	pending [][]treeNode // each level's incomplete trailing block
	record  [][]treeNode // every node's timeline (sealed bytes stripped), for layout
}

func (r *run) treeFolder(name func(level, j int) string) *treeFolder {
	return &treeFolder{r: r, arity: r.cfg.topology.Arity(), name: name, merge: mergeSealed(r.kr)}
}

// push places a node at its level and folds the level's block once it
// holds arity nodes.
func (f *treeFolder) push(level int, n treeNode) error {
	if len(f.pending) <= level {
		f.pending = append(f.pending, nil)
		f.record = append(f.record, nil)
	}
	rec := n
	rec.sealed = nil
	f.record[level] = append(f.record[level], rec)
	f.pending[level] = append(f.pending[level], n)
	if len(f.pending[level]) < f.arity {
		return nil
	}
	block := f.pending[level]
	f.pending[level] = nil
	return f.fold(level, block)
}

// fold runs one interior token over a block of children: receive each
// child's sealed partial via the SSI, verify + decrypt + merge it, and
// upload one sealed merged partial. Virtual time: the node starts when
// its last child's partial is available and then pays what its own
// receives and send charged to its timeline, retries and backoff
// included.
func (f *treeFolder) fold(level int, children []treeNode) error {
	j := 0
	if level+1 < len(f.record) {
		j = len(f.record[level+1])
	}
	tp := f.r.tp
	out := chunkOutcome{worker: f.name(level+1, j), partial: partialAgg{Aggs: map[string]GroupAgg{}}}
	node := treeNode{worker: out.worker}
	tp.elapsed(out.worker, true) // what the token did before (a leaf, another node) is already placed
	rcv := func(e netsim.Envelope) { f.merge(&out, e.Payload) }
	for _, c := range children {
		node.start = max(node.start, c.end)
		err := tp.send(netsim.Envelope{From: "ssi", To: out.worker, Kind: "tree-partial", Payload: c.sealed}, rcv)
		if err != nil && out.err == nil {
			out.err = err
		}
		if out.err != nil {
			return out.err
		}
	}
	sealed, err := sealNonDet(f.r.kr, nil, encodePartial(out.partial))
	if err != nil {
		return err
	}
	if err := tp.send(netsim.Envelope{From: out.worker, To: "ssi", Kind: "partial", Payload: sealed}, nil); err != nil {
		return err
	}
	out.sealed = sealed
	if err := f.r.tally(out); err != nil {
		return err
	}
	f.r.stats.TreeNodes++
	node.partial, node.sealed = out.partial, sealed
	node.end = node.start + tp.elapsed(out.worker, true)
	return f.push(level+1, node)
}

// root folds the trailing partial blocks level by level and returns the
// root's partial and when it is available (no partial when no leaf was
// pushed). Every fold pushes a node one level up, so the top level is
// never empty and a lone node there is the root.
func (f *treeFolder) root() ([]partialAgg, time.Duration, error) {
	for lvl := 0; lvl < len(f.pending); lvl++ {
		block := f.pending[lvl]
		if len(block) == 0 {
			continue
		}
		f.pending[lvl] = nil
		if len(block) == 1 && lvl == len(f.pending)-1 {
			return []partialAgg{block[0].partial}, block[0].end, nil
		}
		if err := f.fold(lvl, block); err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, nil
}

// layout lays the tree out under the fold phase, which starts at the
// clock's current time, and reports its depth, leaf level included.
func (f *treeFolder) layout() {
	tp := f.r.tp
	base := tp.ro.reg.Clock().Now()
	for lvl, nodes := range f.record {
		emitLevel(tp.ro.reg.Tracer(), tp.ro.phases[PhaseTokenFold], base, lvl, nodes)
	}
	f.r.stats.TreeDepth = len(f.record)
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
