// A minimal request/reply layer over control frames, for the out-of-band
// coordination a multi-process deployment needs (liveness, trace
// binding and the end of a remote SSI's stream, snapshot collection,
// shutdown). RPC frames bypass both the
// traffic accounting and the fault plane: they model the operator's
// control channel, not the protocol wire the paper's adversary sits on.
package transport

import (
	"encoding/binary"
	"fmt"
	"time"

	"pds/internal/netsim"
)

// callReplySuffix tags reply kinds; the reader routes them straight to the
// waiting Call.
const callReplySuffix = "/re"

// Call sends a request frame (kind, body) to the endpoint and blocks for
// the matching reply body, up to timeout. A live switch drops a request
// addressed to no live claimant without a word, so only the timeout ends
// that wait.
func (t *TCP) Call(to, kind string, body []byte, timeout time.Duration) ([]byte, error) {
	id, ch := t.waiter()
	defer t.retire(id)
	payload := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint64(payload, id)
	copy(payload[8:], body)
	e := netsim.Envelope{From: t.name, To: to, Kind: kind, Payload: payload}
	if _, ok := t.request(opSend, e); ok {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		if re, ok := t.await(ch, timer.C); ok {
			return re.Payload[8:], nil
		}
	}
	if err := t.Err(); err != nil {
		return nil, fmt.Errorf("transport: call %q to %s lost: %w", kind, to, err)
	}
	return nil, fmt.Errorf("transport: no %q reply from %s within %v", kind, to, timeout)
}

// OnCall registers a request handler for one call kind: fn's return value
// is sent back as the reply body. The kind itself is not claimed — claim
// the serving endpoint with Handle (or rely on the opHello name claim) so
// the switch forwards requests here.
func (t *TCP) OnCall(kind string, fn func(req netsim.Envelope, body []byte) []byte) {
	t.hmu.Lock()
	t.calls[kind] = fn
	t.hmu.Unlock()
}

func (t *TCP) serveCall(e netsim.Envelope, fn func(netsim.Envelope, []byte) []byte) {
	if len(e.Payload) < 8 {
		return
	}
	out := fn(e, e.Payload[8:])
	reply := make([]byte, 8+len(out))
	copy(reply, e.Payload[:8])
	copy(reply[8:], out)
	t.request(opSend, netsim.Envelope{
		From:    t.name,
		To:      e.From,
		Kind:    e.Kind + callReplySuffix,
		Payload: reply,
	})
}
