package gquery

import (
	"fmt"
	"math"
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
// aggregation plane. Every topology is a fan-in tree of interior tokens:
// the SSI relays each interior token its children's sealed partials as
// one frame, and the token verifies, decrypts and merges them. The zero
// value, Flat(), is the one-level tree: a single interior token merges
// every worker's partial, so its one frame grows with the fleet. Tree(k)
// bounds the fan-in at k: each interior token merges at most k children
// and uploads one sealed partial for its parent's frame, so the merge
// plane is O(log_k n) deep.
type Topology struct {
	arity int
}

// Flat is the one-level tree: one interior token over every leaf.
func Flat() Topology { return Topology{} }

// Tree arranges the fold plane as a k-ary fan-in tree; arity < 2
// selects DefaultTreeArity.
func Tree(arity int) Topology {
	if arity < 2 {
		arity = DefaultTreeArity
	}
	return Topology{arity: arity}
}

// Arity returns the tree fan-in (0 for the flat topology: unbounded).
func (t Topology) Arity() int { return t.arity }

func (t Topology) String() string {
	if t.arity == 0 {
		return "flat"
	}
	return fmt.Sprintf("tree(%d)", t.arity)
}

// treeNode is one fold-plane node: a token's partial, its wire form (nil
// until the token uploads it), which token holds it, and — in
// fold-phase-relative virtual time — when the token started on it and
// when the partial is available to a parent.
type treeNode struct {
	partial partialAgg
	sealed  []byte
	worker  string
	start   time.Duration
	end     time.Duration
}

// treeFolder builds the fan-in tree push by push, as the fold plane
// hands it leaves in job order: a node joins its level, and a filled
// block of arity nodes folds at once into one node of the level above,
// so every level is cut into the same contiguous blocks however the
// leaves arrive. It holds at most arity-1 pending nodes per level,
// O(arity·log n) in all; under Flat() that is every leaf until root.
//
// The model is the paper's asymmetric architecture: every token is its
// own serial resource while the SSI routing plane is never the
// bottleneck, so independent folds overlap and a node starts when its
// last child's partial has arrived. Each merge hop is a real protocol
// leg — the parent token MAC-verifies, decrypts and merges each child
// partial of its frame, so a partial the SSI drops, duplicates or forges
// in transit is caught where it lands.
type treeFolder struct {
	r     *run
	arity int
	merge envProcessor

	pending [][]treeNode // each level's incomplete trailing block
	record  [][]treeNode // every node's timeline, for layout
}

func (r *run) treeFolder() *treeFolder {
	arity := r.cfg.topology.Arity()
	if arity == 0 {
		arity = math.MaxInt
	}
	return &treeFolder{r: r, arity: arity, merge: mergeSealed(r.kr)}
}

// push places a node at its level and folds the level's block once it
// holds arity nodes.
func (f *treeFolder) push(level int, n treeNode) error {
	if len(f.pending) <= level {
		f.pending = append(f.pending, nil)
		f.record = append(f.record, nil)
	}
	f.record[level] = append(f.record[level], n)
	f.pending[level] = append(f.pending[level], n)
	if len(f.pending[level]) < f.arity {
		return nil
	}
	block := f.pending[level]
	f.pending[level] = nil
	return f.fold(level, block)
}

// fold runs one interior token over a block of children: the SSI relays
// the children's sealed partials to it as one "tree-partial" frame, in
// order, and the token verifies, decrypts and merges each record. The
// merged partial stays at the token until a parent's frame needs it (see
// upload), so the root never uploads one. Virtual time: the node starts
// when its last child's partial is available and then pays what its
// frame charged to its timeline, retries and backoff included.
func (f *treeFolder) fold(level int, children []treeNode) error {
	rec := f.record[level][len(f.record[level])-len(children):] // a block is its level's trailing nodes
	node := treeNode{}
	for i := range children {
		if err := f.upload(&children[i], level == 0); err != nil {
			return err
		}
		rec[i].end = children[i].end
		node.start = max(node.start, children[i].end)
	}
	j := 0
	if level+1 < len(f.record) {
		j = len(f.record[level+1])
	}
	tp := f.r.tp
	out := chunkOutcome{worker: token(level+1, j), partial: partialAgg{Aggs: map[string]*GroupAgg{}}}
	node.worker = out.worker
	frame := recordFrame(children, func(c treeNode) []byte { return c.sealed })
	err := tp.send(netsim.Envelope{From: "ssi", To: out.worker, Kind: "tree-partial", Payload: *frame},
		func(e netsim.Envelope) { foldFrame(&out, f.merge, e.Payload) })
	chunkFrames.Put(frame)
	if err != nil && out.err == nil {
		out.err = err
	}
	if err := f.r.tally(out); err != nil {
		return err
	}
	f.r.stats.TreeNodes++
	node.partial = out.partial
	node.end = node.start + tp.elapsed(out.worker, true)
	return f.push(level+1, node)
}

// token names the token of node j at a tree level, the leaves being
// level 0. Every node is a token of its own, so its timeline starts
// empty.
func token(level, j int) string { return "tok@L" + strconv.Itoa(level) + "." + strconv.Itoa(j) }

// upload sends a node's partial, sealed, from its token to the SSI once
// its parent's frame needs it, and moves the node's end past the upload.
// The root never uploads its partial. A leaf's dispatch is still on its
// token's ledger, so a leaf ends after the two legs together; an interior
// node's frame was taken at its fold.
func (f *treeFolder) upload(n *treeNode, leaf bool) error {
	sealed, err := sealNonDet(f.r.kr, nil, encodePartial(n.partial))
	if err != nil {
		return err
	}
	if err := f.r.tp.send(netsim.Envelope{From: n.worker, To: "ssi", Kind: "partial", Payload: sealed}, nil); err != nil {
		return err
	}
	n.sealed = sealed
	if leaf {
		n.end = f.r.tp.elapsed(n.worker, true)
	} else {
		n.end += f.r.tp.elapsed(n.worker, true)
	}
	f.r.stats.WorkerCalls++
	return nil
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

// layout lays the tree out under the fold phase, which is open and
// starts at the clock's current time, and reports its depth, leaf level
// included.
func (f *treeFolder) layout() {
	tp := f.r.tp
	base := tp.ro.reg.Clock().Now()
	for lvl, nodes := range f.record {
		emitLevel(tp.ro.reg.Tracer(), tp.ro.cur, base, lvl, nodes)
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
