package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/race"
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
		if err := newFrameWriter(&buf).write(m); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	return frames
}

// conformanceGolden is what conformanceFrames encodes to, frame by frame,
// captured before the node and the switch shared one frame writer: the
// writer must emit these bytes for as long as the wire format stands.
var conformanceGolden = []string{
	"0000002a010100000000000000070071756572696572000000000000000000000000000000000000000000000000",
	"00000027020200000000000000000004007373692a00000000000000000000000000000000000000000000",
	"0000003f03030000000000000007007175657269657205007373693a3006006b696e642d31000000000000000000000000000000000a0000007061796c6f61642d3031",
	"0000003f04030000000000000007007175657269657205007373693a3006006b696e642d31000000000000000000000000000000000a0000007061796c6f61642d3031",
	"0000003f05030000000000000007007175657269657205007373693a3006006b696e642d31000000000000000000000000000000000a0000007061796c6f61642d3031",
	"0000003d03040000000000000006007064732d303305007373693a3007007061727469616c0000000000000000000000000000000008000000626f64792d303131",
	"0000003d04040000000000000006007064732d303305007373693a3007007061727469616c0000000000000000000000000000000008000000626f64792d303131",
	"0000003d05040000000000000006007064732d303305007373693a3007007061727469616c0000000000000000000000000000000008000000626f64792d303131",
	"0000006c03050000000000000001007801007905007475706c6500000000000000000000000000000000420000000700000000000000000000000000000000000000000000000000007061796c6f6164d1e44bde713cf950dafcc58b5a86c814d9e622ca4b84fdd8486f4c1f83a7d8ea",
	"0000006c04050000000000000001007801007905007475706c6500000000000000000000000000000000420000000700000000000000000000000000000000000000000000000000007061796c6f6164d1e44bde713cf950dafcc58b5a86c814d9e622ca4b84fdd8486f4c1f83a7d8ea",
	"0000006c05050000000000000001007801007905007475706c6500000000000000000000000000000000420000000700000000000000000000000000000000000000000000000000007061796c6f6164d1e44bde713cf950dafcc58b5a86c814d9e622ca4b84fdd8486f4c1f83a7d8ea",
	"0000002703060000000000000001006101006201006befbeadde00000000feca0000000000000100000070",
	"0000002704060000000000000001006101006201006befbeadde00000000feca0000000000000100000070",
	"0000002705060000000000000001006101006201006befbeadde00000000feca0000000000000100000070",
	"000000290307000000000000000100610100620400706f73740000000000000000000000000000000000000000",
	"000000290407000000000000000100610100620400706f73740000000000000000000000000000000000000000",
	"000000290507000000000000000100610100620400706f73740000000000000000000000000000000000000000",
}

func TestConformanceFramesGolden(t *testing.T) {
	frames := conformanceFrames(t)
	if len(frames) != len(conformanceGolden) {
		t.Fatalf("%d frames, %d golden vectors", len(frames), len(conformanceGolden))
	}
	for i, f := range frames {
		if got := hex.EncodeToString(f); got != conformanceGolden[i] {
			t.Errorf("frame %d:\n got  %s\n want %s", i, got, conformanceGolden[i])
		}
	}
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
		if err := newFrameWriter(&buf).write(m); err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		frame := data[:4+binary.BigEndian.Uint32(data)]
		if !bytes.Equal(buf.Bytes(), frame) {
			t.Fatalf("accepted frame not canonical:\n read  %x\n wrote %x", frame, buf.Bytes())
		}
	})
}

// The frame writer the node and the switch share encodes in place: once
// its header buffer has grown, writing a 2 KiB forward allocates nothing.
func TestFrameWriterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation ceilings are not measured under -race")
	}
	w := newFrameWriter(io.Discard)
	m := message{op: opForward, id: 9, env: netsim.Envelope{From: "pds-17", To: "ssi:0", Kind: "tuple", Payload: bytes.Repeat([]byte{0xA5}, 2048)}}
	if allocs := testing.AllocsPerRun(100, func() { w.write(m) }); allocs != 0 {
		t.Errorf("writing a 2 KiB forward: %.0f allocs, want 0", allocs)
	}
}

// A forwarded envelope owns the body readMessage allocated for it:
// decoding a 2 KiB forward allocates the body and the three address
// strings, not the length prefix (read in place in the bufio.Reader), and
// its payload aliases the body instead of copying it. An empty payload
// stays nil.
func TestReadMessageAliasesPayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 2048)
	var buf bytes.Buffer
	m := message{op: opForward, id: 9, env: netsim.Envelope{From: "pds-17", To: "ssi:0", Kind: "tuple", Payload: payload}}
	if err := newFrameWriter(&buf).write(m); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	read := func() message {
		src.Reset(frame)
		br.Reset(src)
		got, err := readMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := read(); !bytes.Equal(got.env.Payload, payload) || got.env.Kind != "tuple" {
		t.Fatalf("decoded %+v", got.env)
	}
	if allocs := testing.AllocsPerRun(100, func() { read() }); allocs > 4 {
		t.Errorf("readMessage of a 2 KiB forward: %.0f allocs, want <= 4 (body, From, To, Kind)", allocs)
	}

	buf.Reset()
	m.env.Payload = nil
	if err := newFrameWriter(&buf).write(m); err != nil {
		t.Fatal(err)
	}
	frame = buf.Bytes()
	if got := read(); got.env.Payload != nil {
		t.Errorf("empty payload decoded as %v, want nil", got.env.Payload)
	}
}
