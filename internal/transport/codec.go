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

// encodeMessage appends the message body (everything after the length
// prefix) to buf: the op and id, then the envelope — From, To and Kind
// as u16-length-prefixed strings, the span context's trace and span ids,
// then the u32-length-prefixed payload.
func encodeMessage(buf []byte, m message) ([]byte, error) {
	e := m.env
	if len(e.From) > math.MaxUint16 || len(e.To) > math.MaxUint16 || len(e.Kind) > math.MaxUint16 {
		return nil, fmt.Errorf("transport: envelope address fields exceed 64 KiB")
	}
	buf = binary.LittleEndian.AppendUint64(append(buf, m.op), m.id)
	buf = putStr(buf, e.From)
	buf = putStr(buf, e.To)
	buf = putStr(buf, e.Kind)
	buf = binary.LittleEndian.AppendUint64(buf, e.Ctx.Trace)
	buf = binary.LittleEndian.AppendUint64(buf, e.Ctx.Span)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Payload)))
	return append(buf, e.Payload...), nil
}

// writeMessage frames and writes one message. The caller serializes
// writers.
func writeMessage(w *bufio.Writer, m message) error {
	body, err := encodeMessage(nil, m)
	if err != nil {
		return err
	}
	if len(body) > maxMessage {
		return fmt.Errorf("transport: message of %d bytes exceeds limit", len(body))
	}
	var b4 [4]byte
	binary.BigEndian.PutUint32(b4[:], uint32(len(body)))
	if _, err := w.Write(b4[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
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

// envelope reads one envelope in encodeMessage's layout.
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
		e.Payload = append([]byte(nil), payload...)
	}
	return e, nil
}

// readMessage reads one length-prefixed message.
func readMessage(r *bufio.Reader) (message, error) {
	var b4 [4]byte
	if _, err := io.ReadFull(r, b4[:]); err != nil {
		return message{}, err
	}
	n := binary.BigEndian.Uint32(b4[:])
	if n > maxMessage {
		return message{}, fmt.Errorf("%w: %d bytes exceeds limit", errMalformed, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return message{}, err
	}
	return decodeMessage(body)
}
