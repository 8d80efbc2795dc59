// The TCP implementation of the Transport interface: real length-prefixed
// frames over localhost, one connection per node process, with the
// simulator's synchronous delivery semantics preserved by switch echo.
//
// Accounting rides an embedded netsim.Network used purely as a counter
// plane (its Deliver path is never taken): the same Send bookkeeping code
// runs on both substrates, so traffic counters, per-kind counters and obs
// mirroring are identical by construction. The fault plane is armed
// client-side — decisions are content-hashed, so where they are drawn does
// not matter — which keeps the seeded schedule reproducible and means a
// dropped frame never even reaches the wire, exactly like the simulator.
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

// echoTimeout bounds one switch round trip; a healthy localhost echo takes
// microseconds, so hitting this means the switch died.
const echoTimeout = 30 * time.Second

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
	name   string
	conn   net.Conn
	acct   *netsim.Network // counting + observer plane only
	faults atomic.Pointer[netsim.FaultPlane]

	wmu sync.Mutex
	bw  *bufio.Writer

	nextID atomic.Uint64

	cmu     sync.Mutex
	echoes  map[uint64]chan netsim.Envelope // opSend id -> waiter
	replies map[uint64]chan netsim.Envelope // Call id -> waiter

	hmu      sync.Mutex
	handlers []patternHandler
	calls    map[string]func(req netsim.Envelope, body []byte) []byte

	inq    *envQueue
	closed chan struct{}
	dead   chan struct{} // closed once read+dispatch have exited
	werr   atomic.Pointer[error]
	wg     sync.WaitGroup
}

type patternHandler struct {
	prefix  string // pattern without a trailing '*', or ""
	exact   string // exact endpoint, or ""
	handler func(netsim.Envelope)
}

// Dial connects a named node to the switch at addr. The name is claimed as
// an exact endpoint, so frames addressed to it are forwarded back here.
func Dial(addr, name string) (*TCP, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCP{
		name:    name,
		conn:    conn,
		acct:    netsim.New(),
		bw:      bufio.NewWriter(conn),
		echoes:  map[uint64]chan netsim.Envelope{},
		replies: map[uint64]chan netsim.Envelope{},
		calls:   map[string]func(netsim.Envelope, []byte) []byte{},
		inq:     newEnvQueue(),
		closed:  make(chan struct{}),
		dead:    make(chan struct{}),
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

func (t *TCP) fail(err error) {
	if err == nil {
		return
	}
	t.werr.CompareAndSwap(nil, &err)
}

func (t *TCP) write(m message) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	err := writeMessage(t.bw, m)
	t.fail(err)
	return err
}

// roundtrip pushes one envelope through the switch and returns the echoed
// copy — the moment the switch has accepted (and forwarded) the frame. ok
// is false when the wire is dead; the envelope is then lost, as Deliver's
// contract allows.
func (t *TCP) roundtrip(e netsim.Envelope) (netsim.Envelope, bool) {
	return t.request(opSend, e)
}

// request writes one message and blocks for the switch's echo — the
// synchronization point every write-side operation (send, hello, claim)
// shares.
func (t *TCP) request(op byte, e netsim.Envelope) (netsim.Envelope, bool) {
	id := t.nextID.Add(1)
	ch := make(chan netsim.Envelope, 1)
	t.cmu.Lock()
	t.echoes[id] = ch
	t.cmu.Unlock()
	defer func() {
		t.cmu.Lock()
		delete(t.echoes, id)
		t.cmu.Unlock()
	}()
	if err := t.write(message{op: op, id: id, env: e}); err != nil {
		return e, false
	}
	timer := time.NewTimer(echoTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out, true
	case <-t.closed:
		return e, false
	case <-timer.C:
		t.fail(fmt.Errorf("transport: no echo for %q frame to %s within %v", e.Kind, e.To, echoTimeout))
		return e, false
	}
}

// read is the single connection reader: echoes to their waiting
// round trips, call replies to their waiting Calls, everything else to the
// inbound queue in arrival order.
func (t *TCP) read() {
	defer t.wg.Done()
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
			t.cmu.Lock()
			ch := t.echoes[m.id]
			t.cmu.Unlock()
			if ch != nil {
				ch <- m.env
			}
		case opForward:
			if strings.HasSuffix(m.env.Kind, callReplySuffix) && len(m.env.Payload) >= 8 {
				id := binary.LittleEndian.Uint64(m.env.Payload[:8])
				t.cmu.Lock()
				ch := t.replies[id]
				t.cmu.Unlock()
				if ch != nil {
					ch <- m.env
					continue
				}
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
		if fn := t.callHandler(e.Kind); fn != nil {
			t.serveCall(e, fn)
			continue
		}
		if h := t.handlerFor(e.To); h != nil {
			h(e)
		}
	}
}

func (t *TCP) handlerFor(endpoint string) func(netsim.Envelope) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	var best func(netsim.Envelope)
	bestLen := -1
	for _, h := range t.handlers {
		switch {
		case h.exact == endpoint:
			return h.handler
		case h.exact == "" && len(h.prefix) > bestLen && strings.HasPrefix(endpoint, h.prefix):
			best, bestLen = h.handler, len(h.prefix)
		}
	}
	return best
}

// Handle claims an endpoint pattern on the switch (an exact name or a
// prefix ending in '*') and registers fn for frames forwarded to it. fn
// runs on the dispatch goroutine, one frame at a time, in arrival order.
func (t *TCP) Handle(pattern string, fn func(netsim.Envelope)) error {
	h := patternHandler{handler: fn}
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		h.prefix = p
	} else {
		h.exact = pattern
	}
	t.hmu.Lock()
	t.handlers = append(t.handlers, h)
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
	out, _ := t.roundtrip(e)
	return out
}

// Deliver counts the envelope, routes it through the armed fault plane,
// and round-trips each surviving copy; rcv observes the echoed copies
// synchronously, exactly as on the simulator.
func (t *TCP) Deliver(e netsim.Envelope, rcv func(netsim.Envelope)) {
	t.acct.Send(e)
	fp := t.faults.Load()
	if fp == nil {
		if out, ok := t.roundtrip(e); ok {
			rcv(out)
		}
		return
	}
	for _, c := range fp.Transmit(e) {
		if out, ok := t.roundtrip(c); ok {
			rcv(out)
		}
	}
}

// SetFaults arms (or removes) the client-side fault plane, binding the
// current observer into it.
func (t *TCP) SetFaults(fp *netsim.FaultPlane) {
	if fp != nil {
		fp.BindObserver(t.acct.Observer())
	}
	t.faults.Store(fp)
}

// Faults returns the armed fault plane, or nil.
func (t *TCP) Faults() *netsim.FaultPlane { return t.faults.Load() }

// FlushFaults releases withheld envelopes in their seeded order, pushing
// each over the wire (so remote claimants see the delayed frames) before
// rcv observes the echo.
func (t *TCP) FlushFaults(rcv func(netsim.Envelope)) {
	fp := t.faults.Load()
	if fp == nil {
		return
	}
	fp.Flush(func(e netsim.Envelope) {
		if out, ok := t.roundtrip(e); ok {
			rcv(out)
		}
	})
}

// SetObserver swaps the accounting registry and rebinds the armed fault
// plane to it.
func (t *TCP) SetObserver(reg *obs.Registry) {
	t.acct.SetObserver(reg)
	if fp := t.faults.Load(); fp != nil {
		fp.BindObserver(reg)
	}
}

// Observer returns the attached registry, or nil.
func (t *TCP) Observer() *obs.Registry { return t.acct.Observer() }

// Stats returns total traffic sent by this node.
func (t *TCP) Stats() netsim.Stats { return t.acct.Stats() }

// KindStats returns this node's traffic for one protocol phase tag.
func (t *TCP) KindStats(kind string) netsim.Stats { return t.acct.KindStats(kind) }

// Tap registers a local wire tap (a test probe; it sees this node's sends).
func (t *TCP) Tap(f func(netsim.Envelope)) { t.acct.Tap(f) }

// Reset opens a fresh accounting epoch.
func (t *TCP) Reset() { t.acct.Reset() }

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
