package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// conformanceFrames are wire frames the conformance suite puts on the TCP
// substrate: the hello and claim handshakes, then its envelopes (plain,
// traced, an ARQ frame with a broken tag, an empty payload) under each
// carrying op.
func conformanceFrames(t testing.TB) [][]byte {
	tampered := netsim.EncodeFrame(7, 0, false, obs.SpanContext{}, []byte("payload"))
	tampered[len(tampered)-1] ^= 0xFF
	msgs := []message{
		{op: opHello, id: 1, env: netsim.Envelope{From: "querier"}},
		{op: opClaim, id: 2, env: netsim.Envelope{To: "ssi*"}},
	}
	for i, e := range []netsim.Envelope{
		{From: "querier", To: "ssi:0", Kind: "kind-1", Payload: []byte("payload-01")},
		{From: "pds-03", To: "ssi:0", Kind: "partial", Payload: []byte("body-011")},
		{From: "x", To: "y", Kind: "tuple", Payload: tampered},
		{From: "a", To: "b", Kind: "k", Payload: []byte("p"), Ctx: obs.SpanContext{Trace: 0xDEADBEEF, Span: 0xCAFE}},
		{From: "a", To: "b", Kind: "post"},
	} {
		for _, op := range []byte{opSend, opEcho, opForward} {
			msgs = append(msgs, message{op: op, id: uint64(3 + i), env: e})
		}
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		var buf bytes.Buffer
		if err := writeMessage(bufio.NewWriter(&buf), m); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	return frames
}

// FuzzDecodeFrame feeds the switch's and the node's reader arbitrary
// bytes: the outcome is a typed error, or a message whose encoding is the
// frame that was read — the format is canonical — and never a panic.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range conformanceFrames(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)-1]) // the connection went away mid-frame
		body := frame[4:]
		f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(body)-1)), body...)) // a field runs past the body
		f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(body)+1)), append(body[:len(body):len(body)], 0)...))
	}
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, maxMessage+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessage(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			if !errors.Is(err, errMalformed) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := writeMessage(bufio.NewWriter(&buf), m); err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		frame := data[:4+binary.BigEndian.Uint32(data)]
		if !bytes.Equal(buf.Bytes(), frame) {
			t.Fatalf("accepted frame not canonical:\n read  %x\n wrote %x", frame, buf.Bytes())
		}
	})
}
