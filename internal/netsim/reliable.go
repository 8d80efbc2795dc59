// The reliability layer the Part III protocols run over when the wire is
// faulty: an ARQ link with sequence-numbered frames, SHA-256 integrity
// tags, acknowledgements that themselves ride the faulty wire, and bounded
// retransmission with exponential backoff under the simulated clock. The
// tag detects in-flight corruption (a corrupted frame is treated as loss
// and retransmitted); it is not keyed, so authenticating the sender
// against a forging SSI remains the job of the protocol-level MACs.
package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pds/internal/obs"
)

// Reliability parameterizes a Link.
type Reliability struct {
	// MaxRetries bounds retransmissions per frame beyond the first
	// attempt; <= 0 selects DefaultMaxRetries.
	MaxRetries int
}

// DefaultMaxRetries is the retry budget of a zero Reliability.
const DefaultMaxRetries = 16

// baseBackoff is the simulated wait before the first retransmission; it
// doubles per retry.
const baseBackoff = 5 * time.Millisecond

func (r Reliability) withDefaults() Reliability {
	if r.MaxRetries <= 0 {
		r.MaxRetries = DefaultMaxRetries
	}
	return r
}

// RelStats aggregates the cost the reliability layer paid on one link.
type RelStats struct {
	Transfers   int           // frames offered to the link
	Retransmits int           // extra wire attempts beyond the first
	Acks        int           // acknowledgement frames received back
	TagFailures int           // frames rejected by the integrity tag
	Backoff     time.Duration // simulated time spent waiting between retries
}

// ErrRetriesExhausted is the typed failure of a reliable transfer: every
// attempt (original plus MaxRetries retransmissions) was lost. Match with
// errors.Is; the concrete *RetryError carries the frame's coordinates.
var ErrRetriesExhausted = errors.New("netsim: retries exhausted")

// RetryError reports an abandoned transfer.
type RetryError struct {
	Kind     string
	To       string
	Seq      uint64
	Attempts int
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("netsim: retries exhausted for %q frame seq=%d to %s after %d attempts",
		e.Kind, e.Seq, e.To, e.Attempts)
}

// Is makes errors.Is(err, ErrRetriesExhausted) match.
func (e *RetryError) Is(target error) bool { return target == ErrRetriesExhausted }

// Frame layout: seq(8) | attempt(2) | ack(1) | trace(8) | span(8) |
// payload | sha256 tag(32). The 16 trace-context bytes carry the sending
// transfer's span identity across the (possibly faulty) wire, so spans and
// events the receiver records attach to the transfer that incurred them.
const frameOverhead = 8 + 2 + 1 + 16 + 32

// frameHeader is the byte offset where the payload starts.
const frameHeader = 8 + 2 + 1 + 16

type frame struct {
	seq     uint64
	attempt uint16
	ack     bool
	ctx     obs.SpanContext
	payload []byte
}

// EncodeFrame seals a reliability frame around payload, embedding the
// sender's span context in the header, in a buffer of its own.
func EncodeFrame(seq uint64, attempt uint16, ack bool, ctx obs.SpanContext, payload []byte) []byte {
	return appendFrame(nil, seq, attempt, ack, ctx, payload)
}

// appendFrame appends the frame EncodeFrame builds to dst, growing dst
// at most once.
func appendFrame(dst []byte, seq uint64, attempt uint16, ack bool, ctx obs.SpanContext, payload []byte) []byte {
	dst = slices.Grow(dst, frameOverhead+len(payload))
	var flag byte
	if ack {
		flag = 1
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint16(dst, attempt)
	dst = append(dst, flag)
	dst = binary.LittleEndian.AppendUint64(dst, ctx.Trace)
	dst = binary.LittleEndian.AppendUint64(dst, ctx.Span)
	dst = append(dst, payload...)
	tag := sha256.Sum256(dst[start:])
	return append(dst, tag[:]...)
}

// DecodeFrame verifies the integrity tag and unwraps a frame. ok is false
// for truncated or corrupted frames.
func DecodeFrame(data []byte) (seq uint64, attempt uint16, ack bool, ctx obs.SpanContext, payload []byte, ok bool) {
	fr, ok := decodeFrame(data)
	return fr.seq, fr.attempt, fr.ack, fr.ctx, fr.payload, ok
}

func decodeFrame(data []byte) (frame, bool) {
	if len(data) < frameOverhead {
		return frame{}, false
	}
	body := data[:len(data)-32]
	tag := sha256.Sum256(body)
	if !bytes.Equal(tag[:], data[len(data)-32:]) {
		return frame{}, false
	}
	return frame{
		seq:     binary.LittleEndian.Uint64(body[:8]),
		attempt: binary.LittleEndian.Uint16(body[8:10]),
		ack:     body[10] == 1,
		ctx: obs.SpanContext{
			Trace: binary.LittleEndian.Uint64(body[11:19]),
			Span:  binary.LittleEndian.Uint64(body[19:27]),
		},
		payload: body[frameHeader:],
	}, true
}

// Link is one reliable channel over a (possibly faulty) Wire. A link
// may carry frames between many endpoint pairs — the sequence number is
// link-global — and is safe for the concurrent transfers of a parallel
// token fleet. Receiver-side state (which sequences were delivered) lives
// in the link too: whichever substrate carries the frames, the ARQ
// protocol machine runs at the sending node.
//
// The link owns the bytes of the frames it sends: each data attempt and
// each ack is encoded into a buffer from the link's free list, which the
// buffer rejoins when the wire's Deliver returns. What the wire, a
// receiver or a tap keeps of a frame past that call, it copies.
type Link struct {
	wire Wire
	acct *Network // the wire's counting network, whose observer the link shares
	cfg  Reliability
	recv func(Envelope) // the receiver handed to the wire, bound once

	mu  sync.Mutex
	seq uint64
	// Delivered data sequences: every sequence in 1..seenLow, and those
	// above it in seenAbove. A delayed copy may surface at FlushFaults
	// long after its transfer returned, so a sequence cannot be forgotten
	// when its transfer returns; the watermark forgets it once every
	// sequence below it is delivered too, which leaves the set no larger
	// than the run of out-of-order deliveries. (A transfer that gave up
	// holds the watermark at its sequence until a late copy arrives.)
	seenLow   uint64
	seenAbove map[uint64]struct{}
	pending   map[uint64]inFlight // the transfers under way, by seq
	stats     RelStats
	free      [][]byte // frame buffers no Deliver is using
}

// inFlight is a transfer under way: the callback its data frame is
// delivered to, and whether an ack for it has come back. Only the
// transfer's own attempts read the flag, so an ack for a sequence no
// transfer awaits any longer is counted and dropped.
type inFlight struct {
	deliver func(Envelope)
	acked   bool
}

// NewLink binds a reliable link to a wire.
func NewLink(w Wire, cfg Reliability) *Link {
	l := &Link{seenAbove: map[uint64]struct{}{}, pending: map[uint64]inFlight{}}
	l.recv = l.receive
	l.Reset(w, cfg)
	return l
}

// Reset rebinds the link to w (nil unbinds it) as NewLink(w, cfg) would
// leave a new one: sequence back to zero, no delivered sequences, no
// transfers, zero stats. It keeps its frame buffers and the capacity of
// its sets, so a recycled link carries a run without allocating them
// again. Fault draws hash the frame, which holds the sequence, so a reset
// link draws exactly what a new one would. Reset must not race with a
// transfer.
func (l *Link) Reset(w Wire, cfg Reliability) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wire, l.acct, l.cfg = w, nil, cfg.withDefaults()
	if w != nil {
		l.acct = w.Accounting()
	}
	l.seq, l.seenLow, l.stats = 0, 0, RelStats{}
	clear(l.seenAbove)
	clear(l.pending)
}

// send encodes one frame into a buffer from the free list and delivers
// it; the buffer rejoins the list when Deliver returns.
func (l *Link) send(e Envelope, seq uint64, attempt uint16, ack bool, payload []byte) {
	l.mu.Lock()
	var buf []byte
	if n := len(l.free); n > 0 {
		buf = l.free[n-1]
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	e.Payload = appendFrame(buf[:0], seq, attempt, ack, e.Ctx, payload)
	l.wire.Deliver(e, l.recv)
	l.mu.Lock()
	l.free = append(l.free, e.Payload)
	l.mu.Unlock()
}

// kindNames is the transfer-span name and the ack kind of an envelope
// kind.
type kindNames struct{ xfer, ack string }

// kindNameCache interns kindNames by envelope kind: the kinds a process
// sends are the protocols' constants, so each pair is built once per
// process, not once per link.
var kindNameCache struct {
	sync.RWMutex
	m map[string]kindNames
}

// names returns the transfer-span name and the ack kind of an envelope
// kind.
func names(kind string) kindNames {
	kindNameCache.RLock()
	n, ok := kindNameCache.m[kind]
	kindNameCache.RUnlock()
	if ok {
		return n
	}
	n = kindNames{"xfer:" + kind, kind + "/ack"}
	kindNameCache.Lock()
	if kindNameCache.m == nil {
		kindNameCache.m = map[string]kindNames{}
	}
	kindNameCache.m[kind] = n
	kindNameCache.Unlock()
	return n
}

// obsv returns the observer bridge of the wire's network (nil when no
// registry is attached; netObserver methods tolerate nil).
func (l *Link) obsv() *netObserver { return l.acct.obsv.Load() }

// Stats returns a snapshot of the link's reliability counters.
func (l *Link) Stats() RelStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Transfer moves one envelope across the link: frame, transmit through the
// fault plane, await the ack, and retransmit with exponential (simulated)
// backoff until acked or the retry budget is spent. deliver fires exactly
// once per sequence number — duplicated copies are absorbed — and a frame
// none of whose attempts survived yields a *RetryError.
func (l *Link) Transfer(e Envelope, deliver func(Envelope)) error {
	_, err := l.TransferCost(e, deliver)
	return err
}

// TransferCost is Transfer that also returns this transfer's own cost: its
// retransmits and the backoff it waited before them. The link advances no
// clock by that wait; the caller books it on the sending node's timeline,
// so a retry delays its own node, not every node sharing the run's clock.
func (l *Link) TransferCost(e Envelope, deliver func(Envelope)) (RelStats, error) {
	cost := RelStats{Transfers: 1}
	l.mu.Lock()
	l.seq++
	seq := l.seq
	l.stats.Transfers++
	l.pending[seq] = inFlight{deliver: deliver}
	l.mu.Unlock()
	obsv := l.obsv()
	obsv.rel(relTransfers, 1)
	// The transfer span parents under the protocol-level context on the
	// envelope; its own context rides in the frame bytes, so everything
	// that happens to this frame on the wire — the receive, retransmits,
	// duplicate deliveries, the ack — attaches to this transfer. With no
	// observer the protocol context is forwarded untouched.
	xfer := obsv.startSpan(names(e.Kind).xfer, e.Ctx)
	defer xfer.End()
	wireCtx := e.Ctx
	if xfer != nil {
		wireCtx = xfer.Context()
	}
	defer func() {
		l.mu.Lock()
		delete(l.pending, seq)
		l.mu.Unlock()
	}()

	for attempt := 0; ; attempt++ {
		l.send(Envelope{From: e.From, To: e.To, Kind: e.Kind, Ctx: wireCtx}, seq, uint16(attempt), false, e.Payload)
		l.mu.Lock()
		acked := l.pending[seq].acked
		l.mu.Unlock()
		if acked {
			return cost, nil
		}
		if attempt >= l.cfg.MaxRetries {
			xfer.Annotate("outcome", "retries-exhausted")
			return cost, &RetryError{Kind: e.Kind, To: e.To, Seq: seq, Attempts: attempt + 1}
		}
		wait := baseBackoff << uint(min(attempt, 16))
		cost.Retransmits++
		cost.Backoff += wait
		l.mu.Lock()
		l.stats.Retransmits++
		l.stats.Backoff += wait
		l.mu.Unlock()
		if o := l.obsv(); o != nil {
			o.rel(relRetrans, 1)
			o.rel(relBackoffNS, int64(wait))
			o.event("backoff", wireCtx)
			o.event("retransmit", wireCtx)
		}
	}
}

// receive is the link-level receiver for one arriving wire copy: verify the
// tag, then dispatch by the decoded frame, not by the Deliver context it
// surfaced in — the fault plane may release a reorder-withheld frame during
// a *different* transfer's transmit, and routing by the embedded sequence
// number keeps it bound to the deliver callback its own Transfer
// registered. Data frames are deduplicated by sequence, delivered on first
// sight, and acked back through the (equally faulty) wire; late or
// duplicate copies are re-acked, as in any ARQ. Ack frames mark their
// sequence acked whichever transfer's Deliver surfaces them, while that
// sequence's transfer is still under way.
func (l *Link) receive(got Envelope) {
	fr, ok := decodeFrame(got.Payload)
	if !ok {
		l.mu.Lock()
		l.stats.TagFailures++
		l.mu.Unlock()
		l.obsv().rel(relTagFail, 1)
		return
	}
	if fr.ack {
		l.mu.Lock()
		l.stats.Acks++
		if p, ok := l.pending[fr.seq]; ok {
			p.acked = true
			l.pending[fr.seq] = p
		}
		l.mu.Unlock()
		o := l.obsv()
		o.rel(relAcks, 1)
		o.event("ack", fr.ctx)
		return
	}
	l.mu.Lock()
	first := l.markSeen(fr.seq)
	var deliver func(Envelope)
	if first {
		deliver = l.pending[fr.seq].deliver
	}
	l.mu.Unlock()
	if first && deliver != nil {
		deliver(Envelope{From: got.From, To: got.To, Kind: got.Kind, Payload: fr.payload, Ctx: fr.ctx})
	} else if !first {
		l.obsv().event("dup-delivery", fr.ctx)
	}
	l.send(Envelope{From: got.To, To: got.From, Kind: names(got.Kind).ack, Ctx: fr.ctx}, fr.seq, fr.attempt, true, nil)
}

// Accept processes a data frame that surfaced outside a Transfer — a
// delayed envelope released at a phase barrier. It verifies, deduplicates
// and delivers, but sends no ack: by flush time the sender has already
// retransmitted or given up. Ack frames are ignored.
func (l *Link) Accept(e Envelope, deliver func(Envelope)) {
	fr, ok := decodeFrame(e.Payload)
	if !ok || fr.ack {
		if !ok {
			l.mu.Lock()
			l.stats.TagFailures++
			l.mu.Unlock()
			l.obsv().rel(relTagFail, 1)
		}
		return
	}
	l.mu.Lock()
	first := l.markSeen(fr.seq)
	l.mu.Unlock()
	if first {
		if deliver != nil {
			deliver(Envelope{From: e.From, To: e.To, Kind: e.Kind, Payload: fr.payload, Ctx: fr.ctx})
		}
	} else {
		l.obsv().event("dup-delivery", fr.ctx)
	}
}

// markSeen records seq as delivered and reports whether this was its
// first sighting. Callers hold l.mu.
func (l *Link) markSeen(seq uint64) bool {
	if seq != 0 && seq <= l.seenLow {
		return false
	}
	if _, dup := l.seenAbove[seq]; dup {
		return false
	}
	if seq != l.seenLow+1 {
		l.seenAbove[seq] = struct{}{}
		return true
	}
	l.seenLow++
	for {
		if _, ok := l.seenAbove[l.seenLow+1]; !ok {
			return true
		}
		delete(l.seenAbove, l.seenLow+1)
		l.seenLow++
	}
}
