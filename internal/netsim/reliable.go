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

// add folds o into s.
func (s *RelStats) add(o RelStats) {
	s.Transfers += o.Transfers
	s.Retransmits += o.Retransmits
	s.Acks += o.Acks
	s.TagFailures += o.TagFailures
	s.Backoff += o.Backoff
}

// Add returns s with o folded in.
func (s RelStats) Add(o RelStats) RelStats {
	s.add(o)
	return s
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
// sender's span context in the header.
func EncodeFrame(seq uint64, attempt uint16, ack bool, ctx obs.SpanContext, payload []byte) []byte {
	out := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint64(out[:8], seq)
	binary.LittleEndian.PutUint16(out[8:10], attempt)
	if ack {
		out[10] = 1
	}
	binary.LittleEndian.PutUint64(out[11:19], ctx.Trace)
	binary.LittleEndian.PutUint64(out[19:27], ctx.Span)
	copy(out[frameHeader:], payload)
	tag := sha256.Sum256(out[: frameHeader+len(payload) : frameHeader+len(payload)])
	copy(out[frameHeader+len(payload):], tag[:])
	return out
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
// token fleet. Receiver-side state (the seen-sequence set) lives in the
// link too: whichever substrate carries the frames, the ARQ protocol
// machine runs at the sending node.
type Link struct {
	wire Wire
	cfg  Reliability

	mu      sync.Mutex
	seq     uint64
	seen    map[uint64]bool
	acked   map[uint64]bool
	pending map[uint64]func(Envelope) // deliver callbacks of in-flight transfers, by seq
	stats   RelStats

	// Bound once, not per frame: the receiver handed to the wire, and the
	// span and ack-kind names of the envelope kind last carried (gquery
	// runs one link per kind, so the names are built once per link).
	recv                    func(Envelope)
	kind, xferName, ackKind string

	// Observer bridge cache, keyed by the wire's current registry: the
	// registry is swapped at most once per run epoch, so the fast path is
	// one pointer compare.
	omu     sync.Mutex
	oreg    *obs.Registry
	ocached *netObserver
}

// NewLink binds a reliable link to a wire.
func NewLink(w Wire, cfg Reliability) *Link {
	l := &Link{
		wire:    w,
		cfg:     cfg.withDefaults(),
		seen:    map[uint64]bool{},
		acked:   map[uint64]bool{},
		pending: map[uint64]func(Envelope){},
	}
	l.recv = l.receive
	return l
}

// names returns the transfer-span name and the ack kind of an envelope
// kind. Callers hold l.mu.
func (l *Link) names(kind string) (xfer, ack string) {
	if kind != l.kind || l.xferName == "" {
		l.kind, l.xferName, l.ackKind = kind, "xfer:"+kind, kind+"/ack"
	}
	return l.xferName, l.ackKind
}

// obsv resolves the wire's current registry to a cached observer bridge
// (nil when no registry is attached; netObserver methods tolerate nil).
func (l *Link) obsv() *netObserver {
	reg := l.wire.Observer()
	l.omu.Lock()
	defer l.omu.Unlock()
	if l.oreg != reg || (reg != nil && l.ocached == nil) {
		l.oreg = reg
		l.ocached = newNetObserver(reg)
	}
	if reg == nil {
		return nil
	}
	return l.ocached
}

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
	l.pending[seq] = deliver
	xferName, _ := l.names(e.Kind)
	l.mu.Unlock()
	obsv := l.obsv()
	obsv.rel(MetricRelTransfers, 1)
	// The transfer span parents under the protocol-level context on the
	// envelope; its own context rides in the frame bytes, so everything
	// that happens to this frame on the wire — the receive, retransmits,
	// duplicate deliveries, the ack — attaches to this transfer. With no
	// observer the protocol context is forwarded untouched.
	xfer := obsv.startSpan(xferName, e.Ctx)
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
		wire := EncodeFrame(seq, uint16(attempt), false, wireCtx, e.Payload)
		l.wire.Deliver(Envelope{From: e.From, To: e.To, Kind: e.Kind, Payload: wire, Ctx: wireCtx}, l.recv)
		l.mu.Lock()
		acked := l.acked[seq]
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
			o.rel(MetricRelRetrans, 1)
			o.rel(MetricRelBackoffNS, int64(wait))
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
// sequence acked whichever transfer's Deliver surfaces them.
func (l *Link) receive(got Envelope) {
	fr, ok := decodeFrame(got.Payload)
	if !ok {
		l.mu.Lock()
		l.stats.TagFailures++
		l.mu.Unlock()
		l.obsv().rel(MetricRelTagFail, 1)
		return
	}
	if fr.ack {
		l.mu.Lock()
		l.stats.Acks++
		l.acked[fr.seq] = true
		l.mu.Unlock()
		o := l.obsv()
		o.rel(MetricRelAcks, 1)
		o.event("ack", fr.ctx)
		return
	}
	l.mu.Lock()
	first := !l.seen[fr.seq]
	l.seen[fr.seq] = true
	var deliver func(Envelope)
	if first {
		deliver = l.pending[fr.seq]
	}
	_, ackKind := l.names(got.Kind)
	l.mu.Unlock()
	if first && deliver != nil {
		deliver(Envelope{From: got.From, To: got.To, Kind: got.Kind, Payload: fr.payload, Ctx: fr.ctx})
	} else if !first {
		l.obsv().event("dup-delivery", fr.ctx)
	}
	ackWire := EncodeFrame(fr.seq, fr.attempt, true, fr.ctx, nil)
	l.wire.Deliver(Envelope{From: got.To, To: got.From, Kind: ackKind, Payload: ackWire, Ctx: fr.ctx}, l.recv)
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
			l.obsv().rel(MetricRelTagFail, 1)
		}
		return
	}
	if l.markSeen(fr.seq) {
		if deliver != nil {
			deliver(Envelope{From: e.From, To: e.To, Kind: e.Kind, Payload: fr.payload, Ctx: fr.ctx})
		}
	} else {
		l.obsv().event("dup-delivery", fr.ctx)
	}
}

// markSeen records seq and reports whether this was its first sighting.
func (l *Link) markSeen(seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen[seq] {
		return false
	}
	l.seen[seq] = true
	return true
}
