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
	var b2 [2]byte
	binary.LittleEndian.PutUint16(b2[:], uint16(len(s)))
	return append(append(buf, b2[:]...), s...)
}

// encodeMessage appends the message body (everything after the length
// prefix) to buf.
func encodeMessage(buf []byte, m message) ([]byte, error) {
	if len(m.env.From) > math.MaxUint16 || len(m.env.To) > math.MaxUint16 || len(m.env.Kind) > math.MaxUint16 {
		return nil, fmt.Errorf("transport: envelope address fields exceed 64 KiB")
	}
	buf = append(buf, m.op)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], m.id)
	buf = append(buf, b8[:]...)
	buf = putStr(buf, m.env.From)
	buf = putStr(buf, m.env.To)
	buf = putStr(buf, m.env.Kind)
	binary.LittleEndian.PutUint64(b8[:], m.env.Ctx.Trace)
	buf = append(buf, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], m.env.Ctx.Span)
	buf = append(buf, b8[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(m.env.Payload)))
	buf = append(buf, b4[:]...)
	return append(buf, m.env.Payload...), nil
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
	if m.env.From, err = d.str(); err != nil {
		return message{}, err
	}
	if m.env.To, err = d.str(); err != nil {
		return message{}, err
	}
	if m.env.Kind, err = d.str(); err != nil {
		return message{}, err
	}
	if m.env.Ctx.Trace, err = d.u64(); err != nil {
		return message{}, err
	}
	if m.env.Ctx.Span, err = d.u64(); err != nil {
		return message{}, err
	}
	nb, err := d.bytes(4)
	if err != nil {
		return message{}, err
	}
	payload, err := d.bytes(int(binary.LittleEndian.Uint32(nb)))
	if err != nil {
		return message{}, err
	}
	if len(payload) > 0 {
		m.env.Payload = append([]byte(nil), payload...)
	}
	if d.off != len(body) {
		return message{}, fmt.Errorf("%w: %d trailing bytes", errMalformed, len(body)-d.off)
	}
	return m, nil
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
