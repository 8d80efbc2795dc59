package ssi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// ShardSet partitions the SSI tuple space across n independent server
// nodes. Each PDS is pinned to one shard by a stable hash of its id, so
// every upload, retry and ARQ acknowledgement for that PDS flows over
// the same shard link ("ssi:<i>" in the wire trace) and each shard keeps
// its own fault plane, covert-misbehaviour schedule and leakage record.
//
// A shard can be marked failed with Fail: a failed shard silently loses
// everything it holds and drops all later uploads — exactly the
// availability fault the tuple-id checksum turns into a typed
// DetectionError at the querier, since the asymmetric architecture
// never trusts the SSI plane to be complete.
//
// ShardSet satisfies the same structural interface as a single Server
// (gquery.Infra), so protocol code is oblivious to whether it talks to
// one node or a fleet of them.
type ShardSet struct {
	mu     sync.Mutex
	shards []*Server
	dead   map[int]bool
}

// NewShardSet creates n shards in the given adversary mode. Each shard
// derives its own Behavior seed from b.Seed so the covert attack
// schedules of different shards do not mirror each other.
func NewShardSet(net Wire, n int, mode Mode, b Behavior) (*ShardSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("ssi: shard count must be >= 1, got %d", n)
	}
	ss := &ShardSet{shards: make([]*Server, n), dead: map[int]bool{}}
	for i := range ss.shards {
		sb := b
		sb.Seed = b.Seed + int64(i)*1009
		ss.shards[i] = New(net, mode, sb)
	}
	return ss, nil
}

// Len returns the number of shards.
func (ss *ShardSet) Len() int { return len(ss.shards) }

// Shard exposes one shard, e.g. for per-shard leakage inspection.
func (ss *ShardSet) Shard(i int) *Server { return ss.shards[i] }

// Route returns the shard index owning a PDS id — a pure stable hash,
// so the placement is reproducible across runs and processes.
func (ss *ShardSet) Route(pds string) int {
	return ShardOf(pds, len(ss.shards))
}

// ShardOf maps a PDS id to its owning shard among n — the routing
// function a remote process uses to address the right "ssi:<i>" endpoint
// without holding a ShardSet.
func ShardOf(pds string, n int) int {
	h := sha256.Sum256([]byte("ssi-shard:" + pds))
	return int(binary.LittleEndian.Uint64(h[:8]) % uint64(n))
}

// Dest names the wire destination for a PDS's uploads: "ssi:<shard>".
// Distinct destinations give each shard its own reliable-link ARQ state
// in the transport layer.
func (ss *ShardSet) Dest(pds string) string {
	return fmt.Sprintf("ssi:%d", ss.Route(pds))
}

// Fail marks shard i crashed: its current holdings are lost and every
// later upload routed to it disappears. Protocol detection (checksum
// mismatch) is the intended observable.
func (ss *ShardSet) Fail(i int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.dead[i] = true
}

// Failed reports whether shard i has been marked crashed.
func (ss *ShardSet) Failed(i int) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.dead[i]
}

// alive reports liveness; a dead shard behaves as a black hole.
func (ss *ShardSet) alive(i int) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return !ss.dead[i]
}

// Receive routes an upload to its owning shard by the sender's id. Dead
// shards drop silently.
func (ss *ShardSet) Receive(e netsim.Envelope) {
	i := ss.Route(e.From)
	if !ss.alive(i) {
		return
	}
	ss.shards[i].Receive(e)
}

// Partition asks every live shard for its chunks and concatenates them
// in shard order — a deterministic global chunk sequence. Dead shards
// contribute nothing: their tuples are simply missing, which the
// checksum exposes.
func (ss *ShardSet) Partition(chunkSize int) ([][]netsim.Envelope, error) {
	var out [][]netsim.Envelope
	for i, s := range ss.shards {
		if !ss.alive(i) {
			continue
		}
		chunks, err := s.Partition(chunkSize)
		if err != nil {
			return nil, fmt.Errorf("ssi shard %d: %w", i, err)
		}
		out = append(out, chunks...)
	}
	return out, nil
}

// ObserveGroup routes a grouping observation to the shard that would
// have seen it, keyed by a stable hash of the opaque group key.
func (ss *ShardSet) ObserveGroup(key []byte) {
	var buf [64]byte // a longer key spills to the heap
	h := sha256.Sum256(append(append(buf[:0], "ssi-shard-group:"...), key...))
	i := int(binary.LittleEndian.Uint64(h[:8]) % uint64(len(ss.shards)))
	if !ss.alive(i) {
		return
	}
	ss.shards[i].ObserveGroup(key)
}

// BindTrace fans the wire trace context out to every shard.
func (ss *ShardSet) BindTrace(ctx obs.SpanContext) {
	for _, s := range ss.shards {
		s.BindTrace(ctx)
	}
}

// Pending sums the envelopes awaiting partitioning across live shards.
func (ss *ShardSet) Pending() int {
	n := 0
	for i, s := range ss.shards {
		if ss.alive(i) {
			n += s.Pending()
		}
	}
	return n
}

// Observations merges the leakage records of all shards — the view of a
// colluding SSI operator running the whole fleet.
func (ss *ShardSet) Observations() Observations {
	out := Observations{GroupFrequencies: map[string]int{}}
	for _, s := range ss.shards {
		o := s.Observations()
		out.Envelopes += o.Envelopes
		out.Bytes += o.Bytes
		out.DistinctPayloads += o.DistinctPayloads
		for k, v := range o.GroupFrequencies {
			out.GroupFrequencies[k] += v
		}
	}
	return out
}

// StartStream opens streaming partition mode on every shard, all
// feeding the same emit callback. Chunks from different shards
// interleave in upload arrival order; with a single collection
// goroutine the interleaving is deterministic.
func (ss *ShardSet) StartStream(chunkSize int, emit func([]netsim.Envelope)) error {
	for i, s := range ss.shards {
		if err := s.StartStream(chunkSize, emit); err != nil {
			for j := 0; j < i; j++ {
				ss.shards[j].FinishStream()
			}
			return fmt.Errorf("ssi shard %d: %w", i, err)
		}
	}
	return nil
}

// FinishStream flushes and closes the stream on every live shard, in
// shard order. Dead shards' buffered partial chunks are lost with them.
func (ss *ShardSet) FinishStream() error {
	for i, s := range ss.shards {
		if !ss.alive(i) {
			// Leave streaming mode without emitting the remainder.
			s.streamDiscard()
			continue
		}
		if err := s.FinishStream(); err != nil {
			return fmt.Errorf("ssi shard %d: %w", i, err)
		}
	}
	return nil
}
