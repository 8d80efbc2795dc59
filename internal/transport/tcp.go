// The TCP implementation of the Transport interface: real length-prefixed
// frames over localhost, one connection per node process, with the
// simulator's synchronous delivery semantics preserved by switch echo.
//
// A node is the simulator plus a switch round trip. Its counting network
// is a netsim.Network whose Deliver and FlushFaults the node calls with
// one receiver: push the copy through the switch, then hand rcv the
// echo. The same code therefore counts the traffic, feeds the taps and
// draws the seeded faults on both substrates — a dropped frame never
// even reaches the wire, exactly like the simulator — and the fault
// plane and every ARQ link over the connection share that network's one
// observer.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// Receive-side metric families. The send side reuses the netsim counter
// plane (netsim_messages_total, ...) so both substrates account
// identically; inbound traffic only exists on this substrate — a node
// process is the receiving end of forwarded frames — so it gets its own
// families. A fleet telemetry scrape of an SSI node reads these to see
// ingest progress mid-run.
const (
	MetricFramesReceived = "transport_frames_received_total"
	MetricBytesReceived  = "transport_bytes_received_total"
)

// TCP is one node's connection to a Switch.
type TCP struct {
	name string
	conn net.Conn
	acct *netsim.Network // counting, observer and fault plane
	w    *frameWriter

	// pending holds the waiters of echoes and of call replies, keyed by
	// one id counter so the two cannot collide.
	nextID  atomic.Uint64
	pmu     sync.Mutex
	pending map[uint64]chan netsim.Envelope

	hmu      sync.Mutex
	handlers map[string]func(netsim.Envelope) // claimed pattern -> handler
	calls    map[string]func(req netsim.Envelope, body []byte) []byte

	inq    *envQueue
	closed chan struct{}
	gone   chan struct{} // closed by read as it exits: releases every waiter
	dead   chan struct{} // closed once read+dispatch have exited
	werr   atomic.Pointer[error]
	wg     sync.WaitGroup
}

// Dial connects a named node to the switch at addr. The name is claimed as
// an exact endpoint, so frames addressed to it are forwarded back here.
func Dial(addr, name string) (*TCP, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCP{
		name:     name,
		conn:     conn,
		acct:     netsim.New(),
		w:        newFrameWriter(conn),
		pending:  map[uint64]chan netsim.Envelope{},
		handlers: map[string]func(netsim.Envelope){},
		calls:    map[string]func(netsim.Envelope, []byte) []byte{},
		inq:      newEnvQueue(),
		closed:   make(chan struct{}),
		gone:     make(chan struct{}),
		dead:     make(chan struct{}),
	}
	t.wg.Add(2)
	go t.read()
	go t.dispatch()
	go func() { t.wg.Wait(); close(t.dead) }()
	// Block until the switch confirms the name claim, so a peer can
	// address this node the moment Dial returns.
	if _, ok := t.request(opHello, netsim.Envelope{From: name}); !ok {
		t.Close()
		if err := t.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("transport: hello to %s not acknowledged", addr)
	}
	return t, nil
}

// Name returns the node name announced to the switch.
func (t *TCP) Name() string { return t.name }

// Close tears the connection down. In-flight Deliver calls unblock as if
// their frames were lost.
func (t *TCP) Close() error {
	select {
	case <-t.closed:
		return nil
	default:
	}
	close(t.closed)
	err := t.conn.Close()
	t.inq.close()
	t.wg.Wait()
	return err
}

// Done returns a channel closed once the connection is fully torn down —
// by Close, or by a wire error that ended the reader. A remote role (an
// SSI node process serving forwarded frames and control calls) blocks on
// this to outlive its last frame.
func (t *TCP) Done() <-chan struct{} { return t.dead }

// Err returns the first wire error observed, or nil.
func (t *TCP) Err() error {
	if p := t.werr.Load(); p != nil {
		return *p
	}
	return nil
}

func (t *TCP) fail(err error) { t.werr.CompareAndSwap(nil, &err) }

// waiter registers a waiter under a fresh id; retire removes it.
func (t *TCP) waiter() (uint64, chan netsim.Envelope) {
	id := t.nextID.Add(1)
	ch := make(chan netsim.Envelope, 1)
	t.pmu.Lock()
	t.pending[id] = ch
	t.pmu.Unlock()
	return id, ch
}

func (t *TCP) retire(id uint64) {
	t.pmu.Lock()
	delete(t.pending, id)
	t.pmu.Unlock()
}

// release hands e to id's waiter and reports whether there was one.
func (t *TCP) release(id uint64, e netsim.Envelope) bool {
	t.pmu.Lock()
	ch := t.pending[id]
	t.pmu.Unlock()
	if ch != nil {
		select {
		case ch <- e:
		default: // a waiter takes one envelope; a repeat is dropped
		}
	}
	return ch != nil
}

// await blocks for the envelope released to ch. It fails when the reader
// exits — by Close or by a wire error — or when timeout fires (a nil
// timeout never does).
func (t *TCP) await(ch chan netsim.Envelope, timeout <-chan time.Time) (netsim.Envelope, bool) {
	select {
	case e := <-ch:
		return e, true
	case <-t.gone:
	case <-timeout:
	}
	return netsim.Envelope{}, false
}

// request writes one message and blocks for the switch's echo — the
// synchronization point every write-side operation (send, hello, claim)
// shares. The switch echoes every message it reads, so only a dead
// connection ends the wait without one; ok is then false and the
// envelope is lost, as Deliver's contract allows.
func (t *TCP) request(op byte, e netsim.Envelope) (netsim.Envelope, bool) {
	id, ch := t.waiter()
	defer t.retire(id)
	if err := t.w.write(message{op: op, id: id, env: e}); err != nil {
		t.fail(err)
		return e, false
	}
	if out, ok := t.await(ch, nil); ok {
		return out, true
	}
	return e, false
}

// read is the single connection reader: echoes and call replies to their
// waiters, everything else to the inbound queue in arrival order.
func (t *TCP) read() {
	defer t.wg.Done()
	defer close(t.gone)
	br := bufio.NewReader(t.conn)
	for {
		m, err := readMessage(br)
		if err != nil {
			select {
			case <-t.closed:
			default:
				t.fail(err)
			}
			t.inq.close()
			return
		}
		switch m.op {
		case opEcho:
			t.release(m.id, m.env)
		case opForward:
			if strings.HasSuffix(m.env.Kind, callReplySuffix) && len(m.env.Payload) >= 8 &&
				t.release(binary.LittleEndian.Uint64(m.env.Payload[:8]), m.env) {
				continue
			}
			t.inq.push(m.env)
		}
	}
}

// dispatch drains inbound frames to registered handlers, preserving
// arrival order.
func (t *TCP) dispatch() {
	defer t.wg.Done()
	for {
		e, ok := t.inq.pop()
		if !ok {
			return
		}
		if reg := t.acct.Observer(); reg != nil {
			reg.Counter(MetricFramesReceived).Inc()
			reg.Counter(MetricBytesReceived).Add(int64(len(e.Payload)))
		}
		t.hmu.Lock()
		call := t.calls[e.Kind]
		h, _ := route(t.handlers, e.To)
		t.hmu.Unlock()
		if call != nil {
			t.serveCall(e, call)
		} else if h != nil {
			h(e)
		}
	}
}

// Handle claims an endpoint pattern on the switch (an exact name or a
// prefix ending in '*') and registers fn for frames forwarded to it, in
// place of the fn an earlier Handle of the same pattern registered. fn
// runs on the dispatch goroutine, one frame at a time, in arrival order.
func (t *TCP) Handle(pattern string, fn func(netsim.Envelope)) error {
	t.hmu.Lock()
	t.handlers[pattern] = fn
	t.hmu.Unlock()
	// Block until the switch confirms: once Handle returns, frames
	// addressed to the pattern are guaranteed to be forwarded here.
	if _, ok := t.request(opClaim, netsim.Envelope{To: pattern}); !ok {
		if err := t.Err(); err != nil {
			return err
		}
		return fmt.Errorf("transport: claim of %q not acknowledged", pattern)
	}
	return nil
}

// --- Transport interface ---

// Send counts the envelope and pushes it through the switch without fault
// injection, returning the echoed copy.
func (t *TCP) Send(e netsim.Envelope) netsim.Envelope {
	t.acct.Send(e)
	out, _ := t.request(opSend, e)
	return out
}

// Deliver is the counting network's Deliver with a switch round trip as
// its receiver: the envelope is counted and routed through the armed
// fault plane exactly as on the simulator, and each surviving copy is
// pushed over the wire before rcv observes the echo. As there, e's bytes
// are valid only for the duration of the call.
func (t *TCP) Deliver(e netsim.Envelope, rcv func(netsim.Envelope)) {
	t.acct.Deliver(e, t.echoed(rcv))
}

// FlushFaults releases withheld envelopes in their seeded order, pushing
// each over the wire (so remote claimants see the delayed frames) before
// rcv observes the echo.
func (t *TCP) FlushFaults(rcv func(netsim.Envelope)) { t.acct.FlushFaults(t.echoed(rcv)) }

// echoed round-trips each copy through the switch before rcv sees its
// echo; a copy the dead wire loses never reaches rcv.
func (t *TCP) echoed(rcv func(netsim.Envelope)) func(netsim.Envelope) {
	return func(e netsim.Envelope) {
		if out, ok := t.request(opSend, e); ok {
			rcv(out)
		}
	}
}

// SetFaults arms (or removes) the client-side fault plane. It is
// installed in the counting network, which binds that network's observer
// into it.
func (t *TCP) SetFaults(fp *netsim.FaultPlane) { t.acct.SetFaults(fp) }

// Faults returns the armed fault plane, or nil.
func (t *TCP) Faults() *netsim.FaultPlane { return t.acct.Faults() }

// SetObserver swaps the accounting registry; the counting network
// rebinds the armed fault plane to it.
func (t *TCP) SetObserver(reg *obs.Registry) { t.acct.SetObserver(reg) }

// Observer returns the attached registry, or nil.
func (t *TCP) Observer() *obs.Registry { return t.acct.Observer() }

// Accounting returns the counting network, whose observer the fault plane
// and the ARQ links over this connection share.
func (t *TCP) Accounting() *netsim.Network { return t.acct }

// Tap registers a local wire tap (a test probe; it sees this node's sends).
func (t *TCP) Tap(f func(netsim.Envelope)) { t.acct.Tap(f) }

// envQueue is an unbounded FIFO feeding the dispatch goroutine: the
// connection reader must never block on a slow handler, or echoes would
// deadlock behind inbound data.
type envQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []netsim.Envelope
	closed bool
}

func newEnvQueue() *envQueue {
	q := &envQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *envQueue) push(e netsim.Envelope) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.buf = append(q.buf, e)
	q.cond.Signal()
}

func (q *envQueue) pop() (netsim.Envelope, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return netsim.Envelope{}, false
	}
	e := q.buf[0]
	q.buf = q.buf[1:]
	return e, true
}

func (q *envQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
