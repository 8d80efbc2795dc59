package ssi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// Node is one SSI node as a ShardSet drives it: the SSI surface of the
// Part III protocols (gquery.Infra) without the routing, which is the
// shard set's. A local *Server is a Node; so is a handle on an SSI node
// in another process, and anything standing in for a node that crashes.
type Node interface {
	// Receive ingests one PDS upload.
	Receive(e netsim.Envelope)
	// StartStream opens the streaming partition: until FinishStream,
	// uploads are cut into chunks of at most chunkSize envelopes as they
	// arrive and each chunk is handed to emit as soon as it fills, so the
	// node holds at most one partial chunk. A weakly-malicious node
	// misbehaves here. emit runs on the uploading goroutine and must not
	// call back into the node.
	StartStream(chunkSize int, emit func(chunk []netsim.Envelope)) error
	// FinishStream emits what the stream still holds and closes it.
	FinishStream() error
	// ObserveGroup records the opaque key under which the node grouped an
	// envelope — the leakage channel of the deterministic protocols.
	ObserveGroup(key []byte)
	// BindTrace parents the node's partition spans under a wire context.
	BindTrace(ctx obs.SpanContext)
}

// ShardSet partitions the SSI tuple space across its nodes. Each PDS is
// pinned to one shard by a stable hash of its id, so every upload, retry
// and ARQ acknowledgement for that PDS flows over the same shard link
// (ShardDest, "ssi:<i>" in the wire trace) and each shard keeps its own
// fault plane, covert-misbehaviour schedule and leakage record. One shard
// is a ShardSet too: every SSI fleet, in-process or remote, routes here.
//
// A shard can be marked failed with Fail: from then on every chunk it
// emits goes nowhere, so it loses what it holds and all later uploads —
// exactly the availability fault the tuple-id checksum turns into a typed
// DetectionError at the querier, since the asymmetric architecture never
// trusts the SSI plane to be complete.
//
// ShardSet satisfies gquery.Infra, so protocol code is oblivious to
// whether it talks to one node or a fleet of them.
type ShardSet struct {
	nodes []Node
	mu    sync.Mutex
	dead  []bool
}

// NewShardSet routes over nodes, shard i being nodes[i]; nodes must not
// be empty.
func NewShardSet(nodes []Node) *ShardSet {
	return &ShardSet{nodes: nodes, dead: make([]bool, len(nodes))}
}

// Servers makes n local servers on one wire, server i under
// b.ForShard(i).
func Servers(net Wire, n int, mode Mode, b Behavior) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = New(net, mode, b.ForShard(i))
	}
	return nodes
}

// ForShard is the behaviour of shard i: each shard draws its covert
// attack schedule from its own seed, so the schedules of different
// shards do not mirror each other.
func (b Behavior) ForShard(i int) Behavior {
	b.Seed += int64(i) * 1009
	return b
}

// ShardDest names shard i's wire endpoint. Distinct destinations give
// each shard its own reliable-link ARQ state in the transport layer, and
// a remote node claims its endpoint under this name.
func ShardDest(i int) string { return fmt.Sprintf("ssi:%d", i) }

// Route returns the shard index owning a PDS id — a pure stable hash,
// so the placement is reproducible across runs and processes.
func (ss *ShardSet) Route(pds string) int {
	h := sha256.Sum256([]byte("ssi-shard:" + pds))
	return int(binary.LittleEndian.Uint64(h[:8]) % uint64(len(ss.nodes)))
}

// Dest names the wire destination for a PDS's uploads.
func (ss *ShardSet) Dest(pds string) string { return ShardDest(ss.Route(pds)) }

// Fail marks shard i crashed: its current holdings are lost and every
// later upload routed to it disappears. Protocol detection (checksum
// mismatch) is the intended observable.
func (ss *ShardSet) Fail(i int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.dead[i] = true
}

// alive reports liveness; a dead shard behaves as a black hole.
func (ss *ShardSet) alive(i int) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return !ss.dead[i]
}

// Receive routes an upload to its owning shard by the sender's id.
func (ss *ShardSet) Receive(e netsim.Envelope) { ss.nodes[ss.Route(e.From)].Receive(e) }

// ObserveGroup routes a grouping observation to the shard that would
// have seen it, keyed by a stable hash of the opaque group key.
func (ss *ShardSet) ObserveGroup(key []byte) {
	var buf [64]byte // a longer key spills to the heap
	h := sha256.Sum256(append(append(buf[:0], "ssi-shard-group:"...), key...))
	i := int(binary.LittleEndian.Uint64(h[:8]) % uint64(len(ss.nodes)))
	if !ss.alive(i) {
		return
	}
	ss.nodes[i].ObserveGroup(key)
}

// BindTrace fans the wire trace context out to every shard.
func (ss *ShardSet) BindTrace(ctx obs.SpanContext) {
	for _, n := range ss.nodes {
		n.BindTrace(ctx)
	}
}

// StartStream opens streaming partition mode on every shard, all
// feeding the same emit callback through a gate that drops a failed
// shard's chunks. Chunks from different shards interleave in upload
// arrival order; with a single collection goroutine the interleaving is
// deterministic.
func (ss *ShardSet) StartStream(chunkSize int, emit func([]netsim.Envelope)) error {
	for i, n := range ss.nodes {
		gate := func(chunk []netsim.Envelope) {
			if ss.alive(i) {
				emit(chunk)
			}
		}
		if err := n.StartStream(chunkSize, gate); err != nil {
			for _, m := range ss.nodes[:i] {
				m.FinishStream()
			}
			return fmt.Errorf("ssi shard %d: %w", i, err)
		}
	}
	return nil
}

// FinishStream flushes and closes the stream on every shard, in shard
// order. A failed shard's remainder goes through its gate, nowhere.
func (ss *ShardSet) FinishStream() error {
	for i, n := range ss.nodes {
		if err := n.FinishStream(); err != nil {
			return fmt.Errorf("ssi shard %d: %w", i, err)
		}
	}
	return nil
}
