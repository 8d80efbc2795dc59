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

	inbox []netsim.Envelope
	obs   Observations // GroupFrequencies is built by Observations
	trace obs.SpanContext
	slab  []byte // the block kept records are copied into, used up to its length

	// The grouping record: group[k] indexes k's count in groupFreq, so
	// a key string is made once, the first time the key is observed.
	group     map[string]int
	groupFreq []int

	// Streaming partition mode (StartStream): instead of accumulating an
	// inbox, arriving envelopes are grouped into chunks and emitted as
	// soon as each chunk fills. streamIdx is the running inbox position
	// feeding the covert misbehaviour schedule, so a weakly-malicious
	// server attacks the same positions however its uploads reach it;
	// streamSpan is the stream's ssi/partition span.
	streamEmit   func([]netsim.Envelope)
	streamChunk  int
	streamBuf    []netsim.Envelope
	streamIdx    int
	streamChunks int
	streamSpan   *obs.Span
}

// New creates a server in the given mode.
func New(net Wire, mode Mode, b Behavior) *Server {
	return &Server{
		net:      net,
		mode:     mode,
		behavior: b,
		group:    map[string]int{},
	}
}

// Dest names the server as an upload destination when it is the whole
// SSI: plain "ssi". In a ShardSet the set names the destination.
func (s *Server) Dest(pds string) string { return "ssi" }

// BindTrace parents the server's next partition span under the given
// wire context (the querier's open phase). A zero context unbinds; the
// span then becomes a root.
func (s *Server) BindTrace(ctx obs.SpanContext) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = ctx
}

// Receive stores one envelope (a PDS upload). The server dutifully records
// what it observes. In streaming mode the envelope is routed into the
// current chunk instead of the inbox, and full chunks are emitted
// immediately — the server never holds more than one partial chunk.
//
// e's payload is valid only for the duration of the call, as every byte
// a wire delivers is: the server copies the record it keeps, in the
// inbox or a chunk, into a slab of its own.
func (s *Server) Receive(e netsim.Envelope) {
	s.mu.Lock()
	e.Payload = s.keep(e.Payload)
	s.obs.Envelopes++
	s.obs.Bytes += int64(len(e.Payload))
	if s.streamEmit != nil {
		s.receiveStreaming(e)
	} else {
		s.inbox = append(s.inbox, e)
	}
	s.mu.Unlock()
}

// slabBlock is the size of the blocks the server copies kept records
// into; a record larger than a block gets a block of its own.
const slabBlock = 4 << 10

// keep copies a received record into the slab; callers hold s.mu.
func (s *Server) keep(rec []byte) []byte {
	if len(rec) > cap(s.slab)-len(s.slab) {
		s.slab = make([]byte, 0, max(slabBlock, len(rec)))
	}
	n := len(s.slab)
	s.slab = append(s.slab, rec...)
	return s.slab[n:len(s.slab):len(s.slab)]
}

// receiveStreaming routes one observed envelope into the current chunk;
// callers hold s.mu.
func (s *Server) receiveStreaming(e netsim.Envelope) {
	outs := []netsim.Envelope{e}
	if s.mode == WeaklyMalicious {
		outs = s.corruptOne(s.streamIdx, e, s.streamSpan.Context())
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
	s.streamChunks++
	s.streamEmit(chunk)
}

// StartStream puts the server in streaming partition mode: until
// FinishStream, uploads are grouped into chunks of chunkSize as they
// arrive and handed to emit as soon as each chunk fills, so the server
// holds at most one partial chunk instead of the whole population's
// inbox — the memory-bound contract of a gquery run. A weakly-malicious
// server misbehaves per envelope on the seeded position schedule of
// corruptOne. emit is invoked on the caller's goroutine; there
// must be exactly one uploading goroutine. The stream is one
// ssi/partition span, from StartStream to FinishStream, under the
// context BindTrace gave.
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
	s.streamChunks = 0
	if reg := s.net.Observer(); reg != nil {
		s.streamSpan = reg.Tracer().StartRemote("ssi/partition", s.trace)
		s.streamSpan.Annotate("mode", s.mode.String())
	}
	return nil
}

// FinishStream flushes the final partial chunk and leaves streaming
// mode.
func (s *Server) FinishStream() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streamEmit == nil {
		return fmt.Errorf("ssi: no stream open")
	}
	if len(s.streamBuf) > 0 {
		chunk := s.streamBuf
		s.streamBuf = nil
		s.emitChunk(chunk)
	}
	s.streamSpan.Annotate("envelopes", strconv.Itoa(s.streamIdx))
	s.streamSpan.Annotate("chunks", strconv.Itoa(s.streamChunks))
	s.streamSpan.End()
	s.streamSpan = nil
	s.streamEmit = nil
	s.streamChunk = 0
	return nil
}

// ObserveGroup lets protocol code report the opaque key under which the
// server grouped an envelope (det ciphertext, bucket id, ...). Honest
// protocols call it exactly where the real server could group.
func (s *Server) ObserveGroup(key []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.group[string(key)]
	if !ok {
		i = len(s.groupFreq)
		s.group[string(key)] = i
		s.groupFreq = append(s.groupFreq, 0)
	}
	s.groupFreq[i]++
}

// Observations returns a copy of the leakage record.
func (s *Server) Observations() Observations {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.obs
	out.GroupFrequencies = make(map[string]int, len(s.group))
	for k, i := range s.group {
		out.GroupFrequencies[k] = s.groupFreq[i]
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

// Partition cuts the inbox into chunks of at most chunkSize envelopes,
// consuming it. It streams the inbox through StartStream, so a
// weakly-malicious server drops, duplicates and forges the positions it
// would attack had the uploads streamed in. Receive already observed the
// inbox, and the replay observes nothing.
func (s *Server) Partition(chunkSize int) ([][]netsim.Envelope, error) {
	var chunks [][]netsim.Envelope
	if err := s.StartStream(chunkSize, func(c []netsim.Envelope) { chunks = append(chunks, c) }); err != nil {
		return nil, err
	}
	s.mu.Lock()
	work := s.inbox
	s.inbox = nil
	for _, e := range work {
		s.receiveStreaming(e)
	}
	s.mu.Unlock()
	return chunks, s.FinishStream()
}

// MetricCorrupt counts realized SSI misbehaviour, labeled by action
// (drop | duplicate | forge) — what the covert server actually did, as
// opposed to the wire faults netsim injects. Emitted on the network's
// attached observer, so reports can tell dropped-by-SSI apart from
// dropped-on-the-wire.
const MetricCorrupt = "ssi_corrupt_total"

// corruptOne decides one envelope's fate given its inbox position i:
// nil (dropped), the envelope twice (duplicated), a bit-flipped copy
// (forged), or the envelope unchanged. The fate is drawn from a seeded
// hash of the position rather than a stateful PRNG, so the attack
// schedule is a pure function of (Behavior, upload order) and replays
// exactly for debugging a detected run.
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
