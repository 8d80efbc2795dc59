// The localhost switch: the rendezvous point of a multi-process
// deployment. It owns no protocol state — it routes frames to whichever
// connection claimed the destination endpoint and echoes every frame back
// to its sender, which is what gives the TCP transport the simulator's
// synchronous Deliver semantics.
package transport

import (
	"bufio"
	"net"
	"strings"
	"sync"
)

// Switch is a frame router listening on localhost. Connections introduce
// themselves (opHello), claim endpoint patterns (opClaim), and exchange
// envelopes (opSend → opForward + opEcho). A connection's claims die with
// it, so a crashed SSI process silently loses its traffic — exactly the
// availability fault the protocols' integrity checks must detect.
type Switch struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[*swConn]bool   // every connection accepted and still served
	routes map[string]*swConn // claimed pattern -> owner
	closed bool

	wg sync.WaitGroup
}

type swConn struct {
	conn net.Conn
	w    *frameWriter
}

// route resolves an endpoint among the patterns claimed on it, keyed as
// claimed: the pattern equal to the endpoint wins, else the longest
// pattern ending in '*' whose prefix the endpoint has. The switch routes
// frames to connections by it and a node routes them to handlers.
func route[V any](claims map[string]V, endpoint string) (v V, ok bool) {
	if v, ok = claims[endpoint]; ok {
		return v, true
	}
	best := -1
	for p, h := range claims {
		if pre, star := strings.CutSuffix(p, "*"); star && len(pre) > best && strings.HasPrefix(endpoint, pre) {
			v, ok, best = h, true, len(pre)
		}
	}
	return v, ok
}

// NewSwitch starts a switch on an ephemeral localhost port.
func NewSwitch() (*Switch, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Switch{ln: ln, conns: map[*swConn]bool{}, routes: map[string]*swConn{}}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the dialable address of the switch.
func (s *Switch) Addr() string { return s.ln.Addr().String() }

// Close stops the switch and drops every connection it accepted, whether
// or not it still owns a route.
func (s *Switch) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Switch) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		c := &swConn{conn: conn, w: newFrameWriter(conn)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[c] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(c)
	}
}

func (s *Switch) owner(endpoint string) *swConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, _ := route(s.routes, endpoint)
	return c
}

func (s *Switch) claim(c *swConn, pattern string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[pattern] = c
}

// drop forgets c: its claims and its place among the served connections.
func (s *Switch) drop(c *swConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	for p, o := range s.routes {
		if o == c {
			delete(s.routes, p)
		}
	}
}

// serve reads one connection until it ends; a malformed or torn stream
// drops the connection, and its claims go with it.
func (s *Switch) serve(c *swConn) {
	defer s.wg.Done()
	defer c.conn.Close()
	defer s.drop(c)
	br := bufio.NewReader(c.conn)
	for {
		m, err := readMessage(br)
		if err != nil {
			return
		}
		switch m.op {
		case opHello, opClaim:
			// hello claims the node's name. Echo so the node knows the
			// pattern is routable before Dial or Handle returns —
			// otherwise an immediate peer send could race the claim.
			pattern := m.env.To
			if m.op == opHello {
				pattern = m.env.From
			}
			s.claim(c, pattern)
			if c.w.write(message{op: opEcho, id: m.id}) != nil {
				return
			}
		case opSend:
			if dst := s.owner(m.env.To); dst != nil && dst != c {
				// Forwarding failure means the owner died mid-frame: the
				// claim is dropped and the frame is lost, as on any real
				// wire. The echo below still completes the sender's call.
				if dst.w.write(message{op: opForward, env: m.env}) != nil {
					s.drop(dst)
					dst.conn.Close()
				}
			}
			if c.w.write(message{op: opEcho, id: m.id, env: m.env}) != nil {
				return
			}
		}
	}
}
