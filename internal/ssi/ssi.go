// Package ssi models the Supporting Server Infrastructure of the
// asymmetric PDS architecture: a powerful but untrusted server that
// stores, partitions and routes the encrypted envelopes the tokens
// exchange. Following the tutorial's threat model, the server can be:
//
//   - honest-but-curious (semi-honest): it follows the protocol but
//     records everything it sees, hoping to infer data — the Observations
//     type captures exactly what it could learn;
//   - weakly malicious (covert): it may drop, duplicate or forge
//     envelopes, but does not want to be detected.
//
// The server never holds a decryption key; any plaintext reaching it is a
// protocol bug that the leakage tests would expose.
package ssi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// Mode selects the adversary model of the server.
type Mode int

// Adversary modes from the tutorial's threat model.
const (
	HonestButCurious Mode = iota
	WeaklyMalicious
)

func (m Mode) String() string {
	switch m {
	case HonestButCurious:
		return "honest-but-curious"
	case WeaklyMalicious:
		return "weakly-malicious"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Behavior parameterizes a weakly-malicious server. Rates are per
// envelope, applied during partitioning. Each envelope's fate is a pure
// seeded-hash function of its inbox position, so the attack schedule
// replays exactly from the seed for a given upload order — deliberately
// independent of payload bytes, which vary run to run under
// non-deterministic encryption.
type Behavior struct {
	DropRate      float64
	DuplicateRate float64
	ForgeRate     float64
	Seed          int64
}

// Observations is what the server could learn by watching the protocol.
type Observations struct {
	Envelopes int
	Bytes     int64
	// GroupFrequencies counts, per opaque grouping key the server used
	// (e.g. a deterministic ciphertext or a bucket id), how many tuples
	// it saw — the leakage channel of the deterministic protocols.
	GroupFrequencies map[string]int
	// DistinctPayloads counts distinct payloads; under non-deterministic
	// encryption this equals Envelopes (nothing groups).
	DistinctPayloads int
}

// Wire is the only view of the transport an SSI holds: the observer
// registry it mirrors partition spans and corruption counters into. The
// server never sends — it is a passive router — so it does not need the
// full transport surface, and any substrate (in-process Network, TCP
// client, or nil-observer stub) satisfies it.
type Wire interface {
	Observer() *obs.Registry
}

// Server is one SSI instance bound to a wire.
type Server struct {
	mu       sync.Mutex
	net      Wire
	mode     Mode
	behavior Behavior

	inbox    []netsim.Envelope
	obs      Observations
	payloads map[string]bool
	trace    obs.SpanContext

	// Streaming partition mode (StartStream): instead of accumulating an
	// inbox, arriving envelopes are grouped into chunks and emitted as
	// soon as each chunk fills. streamIdx is the running inbox position
	// feeding the covert misbehaviour schedule, so a weakly-malicious
	// server attacks the same positions whether it streams or batches.
	streamEmit  func([]netsim.Envelope)
	streamChunk int
	streamBuf   []netsim.Envelope
	streamIdx   int
}

// New creates a server in the given mode.
func New(net Wire, mode Mode, b Behavior) *Server {
	return &Server{
		net:      net,
		mode:     mode,
		behavior: b,
		obs:      Observations{GroupFrequencies: map[string]int{}},
		payloads: map[string]bool{},
	}
}

// Mode returns the adversary mode.
func (s *Server) Mode() Mode { return s.mode }

// Dest names the server as an upload destination. A single server is
// always plain "ssi"; a ShardSet routes per PDS instead.
func (s *Server) Dest(pds string) string { return "ssi" }

// BindTrace parents the server's next partition span under the given wire
// context (typically the querier's partition-phase span). A zero context
// unbinds; the span then becomes a root.
func (s *Server) BindTrace(ctx obs.SpanContext) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = ctx
}

// Receive stores one envelope (a PDS upload). The server dutifully records
// what it observes. In streaming mode the envelope is routed into the
// current chunk instead of the inbox, and full chunks are emitted
// immediately — the server never holds more than one partial chunk.
func (s *Server) Receive(e netsim.Envelope) {
	s.mu.Lock()
	if s.streamEmit != nil {
		s.receiveStreaming(e)
		s.mu.Unlock()
		return
	}
	defer s.mu.Unlock()
	s.inbox = append(s.inbox, e)
	s.obs.Envelopes++
	s.obs.Bytes += int64(len(e.Payload))
	if !s.payloads[string(e.Payload)] {
		s.payloads[string(e.Payload)] = true
		s.obs.DistinctPayloads++
	}
}

// receiveStreaming is Receive's streaming path; callers hold s.mu. The
// distinct-payload record is deliberately not maintained here: that map
// is O(population) memory, exactly what streaming mode exists to avoid
// (leakage studies use batch mode).
func (s *Server) receiveStreaming(e netsim.Envelope) {
	s.obs.Envelopes++
	s.obs.Bytes += int64(len(e.Payload))
	outs := []netsim.Envelope{e}
	if s.mode == WeaklyMalicious {
		outs = s.corruptOne(s.streamIdx, e, obs.SpanContext{})
	}
	s.streamIdx++
	for _, out := range outs {
		s.streamBuf = append(s.streamBuf, out)
		if len(s.streamBuf) >= s.streamChunk {
			chunk := s.streamBuf
			s.streamBuf = nil
			s.emitChunk(chunk)
		}
	}
}

// emitChunk hands one full chunk to the stream consumer; callers hold
// s.mu. The single-writer contract of StartStream makes holding the
// lock across the (possibly blocking) emit safe: only the collection
// goroutine calls Receive, and the fold workers draining the chunks
// never call back into the server.
func (s *Server) emitChunk(chunk []netsim.Envelope) {
	s.streamEmit(chunk)
}

// StartStream puts the server in streaming partition mode: until
// FinishStream, uploads are grouped into chunks of chunkSize as they
// arrive and handed to emit as soon as each chunk fills, so the server
// holds at most one partial chunk instead of the whole population's
// inbox — the memory-bound contract of gquery.SecureAggStream. A
// weakly-malicious server misbehaves per envelope with the same seeded
// position schedule as batch Partition. emit is invoked on the caller's
// goroutine; there must be exactly one uploading goroutine.
func (s *Server) StartStream(chunkSize int, emit func([]netsim.Envelope)) error {
	if chunkSize < 1 {
		return fmt.Errorf("ssi: chunkSize must be >= 1, got %d", chunkSize)
	}
	if emit == nil {
		return fmt.Errorf("ssi: streaming mode needs an emit callback")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streamEmit != nil {
		return fmt.Errorf("ssi: stream already open")
	}
	s.streamEmit = emit
	s.streamChunk = chunkSize
	s.streamIdx = 0
	return nil
}

// FinishStream flushes the final partial chunk and leaves streaming
// mode.
func (s *Server) FinishStream() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streamEmit == nil {
		return
	}
	if len(s.streamBuf) > 0 {
		chunk := s.streamBuf
		s.streamBuf = nil
		s.emitChunk(chunk)
	}
	s.streamEmit = nil
	s.streamChunk = 0
}

// streamDiscard leaves streaming mode without flushing the buffered
// partial chunk — what a crashed shard does to the tuples it held.
func (s *Server) streamDiscard() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streamBuf = nil
	s.streamEmit = nil
	s.streamChunk = 0
}

// ObserveGroup lets protocol code report the opaque key under which the
// server grouped an envelope (det ciphertext, bucket id, ...). Honest
// protocols call it exactly where the real server could group.
func (s *Server) ObserveGroup(key []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.GroupFrequencies[string(key)]++
}

// Pending returns how many envelopes await partitioning.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inbox)
}

// Observations returns a copy of the leakage record.
func (s *Server) Observations() Observations {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.obs
	out.GroupFrequencies = make(map[string]int, len(s.obs.GroupFrequencies))
	for k, v := range s.obs.GroupFrequencies {
		out.GroupFrequencies[k] = v
	}
	return out
}

// FrequencyHistogram returns the sorted multiset of group frequencies the
// server observed — the shape an attacker would try to match against a
// known distribution.
func (o Observations) FrequencyHistogram() []int {
	out := make([]int, 0, len(o.GroupFrequencies))
	for _, v := range o.GroupFrequencies {
		out = append(out, v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Partition splits the inbox into chunks of at most chunkSize envelopes,
// consuming it. A weakly-malicious server misbehaves here: it drops,
// duplicates, or forges envelopes according to its Behavior — covertly,
// hoping the tokens' integrity checks miss it.
func (s *Server) Partition(chunkSize int) ([][]netsim.Envelope, error) {
	if chunkSize < 1 {
		return nil, fmt.Errorf("ssi: chunkSize must be >= 1, got %d", chunkSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streamEmit != nil {
		return nil, fmt.Errorf("ssi: batch Partition unavailable in streaming mode")
	}
	work := s.inbox
	s.inbox = nil
	var sp *obs.Span
	if reg := s.net.Observer(); reg != nil {
		sp = reg.Tracer().StartRemote("ssi/partition", s.trace)
		sp.Annotate("mode", s.mode.String())
		sp.Annotate("envelopes", strconv.Itoa(len(work)))
	}
	if s.mode == WeaklyMalicious {
		work = s.corrupt(work, sp.Context())
	}
	var chunks [][]netsim.Envelope
	for len(work) > 0 {
		n := chunkSize
		if n > len(work) {
			n = len(work)
		}
		chunks = append(chunks, work[:n])
		work = work[n:]
	}
	sp.Annotate("chunks", strconv.Itoa(len(chunks)))
	sp.End()
	return chunks, nil
}

// MetricCorrupt counts realized SSI misbehaviour, labeled by action
// (drop | duplicate | forge) — what the covert server actually did, as
// opposed to the wire faults netsim injects. Emitted on the network's
// attached observer, so reports can tell dropped-by-SSI apart from
// dropped-on-the-wire.
const MetricCorrupt = "ssi_corrupt_total"

// corrupt applies the covert misbehaviour. Each envelope's fate is drawn
// from a seeded hash of its inbox position rather than a stateful PRNG,
// so the attack schedule is a pure function of (Behavior, upload order)
// and replays exactly for debugging a detected run.
func (s *Server) corrupt(in []netsim.Envelope, ctx obs.SpanContext) []netsim.Envelope {
	var out []netsim.Envelope
	for i, e := range in {
		out = append(out, s.corruptOne(i, e, ctx)...)
	}
	return out
}

// corruptOne decides one envelope's fate given its inbox position i:
// nil (dropped), the envelope twice (duplicated), a bit-flipped copy
// (forged), or the envelope unchanged. Batch Partition and streaming
// Receive share it, so the attack schedule is identical in both modes.
func (s *Server) corruptOne(i int, e netsim.Envelope, ctx obs.SpanContext) []netsim.Envelope {
	b := s.behavior
	reg := s.net.Observer()
	note := func(action string) {
		if reg != nil {
			reg.Counter(MetricCorrupt, "action", action).Inc()
			reg.Tracer().Event("ssi-"+action, ctx)
		}
	}
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(i))
	r := netsim.HashUniform(b.Seed, []byte("ssi-corrupt"), idx[:])
	switch {
	case r < b.DropRate:
		note("drop")
		return nil
	case r < b.DropRate+b.DuplicateRate:
		note("duplicate")
		return []netsim.Envelope{e, e}
	case r < b.DropRate+b.DuplicateRate+b.ForgeRate:
		note("forge")
		forged := e
		forged.Payload = append([]byte(nil), e.Payload...)
		if len(forged.Payload) > 0 {
			pos := int(netsim.HashUniform(b.Seed, []byte("ssi-forge-pos"), idx[:]) * float64(len(forged.Payload)))
			if pos >= len(forged.Payload) {
				pos = len(forged.Payload) - 1
			}
			forged.Payload[pos] ^= 0xA5
		}
		return []netsim.Envelope{forged}
	default:
		return []netsim.Envelope{e}
	}
}

// HashID derives a 64-bit opaque tuple id from a PDS id and a sequence
// number; protocols use the sum of ids as a drop/duplication detector.
func HashID(pds string, seq int) uint64 {
	var buf [64]byte // "<pds>#<seq>"; longer ids spill to the heap
	b := append(buf[:0], pds...)
	b = append(b, '#')
	h := sha256.Sum256(strconv.AppendInt(b, int64(seq), 10))
	return binary.LittleEndian.Uint64(h[:8])
}
