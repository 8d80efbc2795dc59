// Wire codec of the TCP substrate: length-prefixed messages, each an op
// byte, a correlation id and one envelope. The envelope's ARQ payload (the
// 59-byte-overhead frame layout of netsim.EncodeFrame) is carried opaquely
// — the reliability protocol is end-to-end, the codec only moves bytes.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"pds/internal/netsim"
)

// Message ops.
const (
	// opHello introduces a connection: Env.From carries the node name,
	// which the switch auto-claims as an exact endpoint.
	opHello = byte(iota + 1)
	// opClaim registers ownership of an endpoint pattern (Env.To): an
	// exact name, or a prefix ending in '*' ("ssi*" owns "ssi", "ssi:0",
	// …). Frames addressed to owned endpoints are forwarded.
	opClaim
	// opSend carries one envelope sender → switch. The switch forwards it
	// to the claiming connection (if any, and not the sender itself) and
	// always echoes it back with the same id.
	opSend
	// opEcho is the switch's synchronous acceptance of an opSend, echoed
	// to the sender with the original id and envelope.
	opEcho
	// opForward delivers an envelope to the connection claiming its
	// destination.
	opForward
)

// maxMessage bounds one wire message. The largest a protocol sends is a
// dispatch frame, a whole chunk of sealed tuples of about 110 B each: a
// secure-agg chunk is a few KiB, but a noise group or histogram bucket
// is one chunk however many tuples it holds, so 64 MiB caps it at about
// 600 000 tuples on this substrate.
const maxMessage = 64 << 20

// errMalformed marks bytes from the wire that are not a message: a length
// over the limit, a field running past the body, trailing bytes.
var errMalformed = errors.New("transport: malformed message")

type message struct {
	op  byte
	id  uint64
	env netsim.Envelope
}

func putStr(buf []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(buf, uint16(len(s))), s...)
}

// frameWriter is the one writer of a connection's frames, the node's and
// the switch's alike. A frame is its big-endian u32 length, then the op
// and id, then the envelope: From, To and Kind as u16-length-prefixed
// strings, the span context's trace and span ids, the u32-length-prefixed
// payload. The length and everything before the payload are encoded in
// place in a reused buffer, the payload is written from the sender's
// bytes, and the buffered writer is flushed at the end of each frame.
type frameWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	hdr []byte
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{bw: bufio.NewWriter(w)} }

func (w *frameWriter) write(m message) error {
	e := m.env
	if len(e.From) > math.MaxUint16 || len(e.To) > math.MaxUint16 || len(e.Kind) > math.MaxUint16 {
		return fmt.Errorf("transport: envelope address fields exceed 64 KiB")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	b := binary.LittleEndian.AppendUint64(append(w.hdr[:0], 0, 0, 0, 0, m.op), m.id)
	b = putStr(b, e.From)
	b = putStr(b, e.To)
	b = putStr(b, e.Kind)
	b = binary.LittleEndian.AppendUint64(b, e.Ctx.Trace)
	b = binary.LittleEndian.AppendUint64(b, e.Ctx.Span)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Payload)))
	w.hdr = b
	n := len(b) - 4 + len(e.Payload)
	if n > maxMessage {
		return fmt.Errorf("transport: message of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	w.bw.Write(b) // a bufio.Writer's error sticks: Flush reports it
	w.bw.Write(e.Payload)
	return w.bw.Flush()
}

type decoder struct {
	data []byte
	off  int
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.data) {
		return nil, fmt.Errorf("%w: truncated (%d of %d bytes)", errMalformed, len(d.data)-d.off, n)
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.bytes(2)
	if err != nil {
		return "", err
	}
	s, err := d.bytes(int(binary.LittleEndian.Uint16(b)))
	return string(s), err
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func decodeMessage(body []byte) (message, error) {
	d := &decoder{data: body}
	op, err := d.bytes(1)
	if err != nil {
		return message{}, err
	}
	m := message{op: op[0]}
	if m.id, err = d.u64(); err != nil {
		return message{}, err
	}
	if m.env, err = d.envelope(); err != nil {
		return message{}, err
	}
	if d.off != len(body) {
		return message{}, fmt.Errorf("%w: %d trailing bytes", errMalformed, len(body)-d.off)
	}
	return m, nil
}

// envelope reads one envelope in frameWriter's layout. Its payload
// aliases the decoded bytes (nil when empty): readMessage allocates a
// body per message and nothing reuses it, so the envelope owns it.
func (d *decoder) envelope() (netsim.Envelope, error) {
	var e netsim.Envelope
	var err error
	if e.From, err = d.str(); err != nil {
		return e, err
	}
	if e.To, err = d.str(); err != nil {
		return e, err
	}
	if e.Kind, err = d.str(); err != nil {
		return e, err
	}
	if e.Ctx.Trace, err = d.u64(); err != nil {
		return e, err
	}
	if e.Ctx.Span, err = d.u64(); err != nil {
		return e, err
	}
	nb, err := d.bytes(4)
	if err != nil {
		return e, err
	}
	payload, err := d.bytes(int(binary.LittleEndian.Uint32(nb)))
	if err != nil {
		return e, err
	}
	if len(payload) > 0 {
		e.Payload = payload
	}
	return e, nil
}

// readMessage reads one length-prefixed message. The prefix is read in
// place in r's buffer, so only the body is allocated. As with
// io.ReadFull, a stream that ends inside the prefix is an unexpected EOF.
func readMessage(r *bufio.Reader) (message, error) {
	b4, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(b4) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return message{}, err
	}
	n := binary.BigEndian.Uint32(b4)
	r.Discard(4)
	if n > maxMessage {
		return message{}, fmt.Errorf("%w: %d bytes exceeds limit", errMalformed, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return message{}, err
	}
	return decodeMessage(body)
}
