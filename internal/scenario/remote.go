// The multi-process seam of a scenario: a Fleet is the querier's handle
// on the remote SSI shard processes, its Infra the ssi.ShardSet whose
// nodes are those processes (remoteShard), and ServeSSI is the
// node-side loop a pdsd SSI process runs. Data flows over the protocol
// wire both ways: the switch forwards the querier's uploads to whichever
// process claimed the shard endpoint, where a FrameSink collapses the
// ARQ stream back to exactly-once envelopes, and the node streams each
// chunk back as one frame the moment it fills. Only ping, trace binding,
// the end of the stream, snapshots, telemetry and stop ride RPC.
package scenario

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
	"pds/internal/transport"
)

// Control-channel call kinds. They share the claim of the shard's data
// endpoint: the switch routes by destination, the TCP dispatcher routes
// by call kind before endpoint handlers, so "scn/*" never collides with
// protocol kinds ("tuple", "chunk", ...).
const (
	callPing      = "scn/ping"
	callBindTrace = "scn/bind"
	callFinish    = "scn/fin"
	callSnapshot  = "scn/snap"
	callStop      = "scn/stop"
	// callTelemetry pulls a live obs snapshot from a running node — the
	// fleet scrape op. Unlike callSnapshot (the end-of-run report), it is
	// served mid-collection and returns only the registry, so a
	// coordinator can poll it on every HTTP scrape.
	callTelemetry = "scn/tele"
)

// callTimeout bounds one control round trip, and the wait for the chunk
// frames a finished stream sent; finishRetries covers the respawn window
// of a restart plan (the shard endpoint is unclaimed while pdsd
// relaunches the process, so calls in that window time out).
const (
	callTimeout   = 2 * time.Second
	finishRetries = 8
)

// chunkDest names the querier's endpoint for shard i's chunk frames.
func chunkDest(shard int) string { return ssi.ShardDest(shard) + "/chunks" }

// Fleet is the control handle on n remote SSI shard processes reachable
// through conn: readiness, the run's SSI (Infra), snapshots, live
// telemetry, liveness and shutdown.
type Fleet struct {
	conn   *transport.TCP
	shards int
}

// NewFleet returns the handle on n remote shards reachable through conn.
func NewFleet(conn *transport.TCP, n int) *Fleet {
	return &Fleet{conn: conn, shards: max(n, 1)}
}

// WaitReady pings every shard until it answers or the deadline passes —
// the startup barrier before the first upload (frames forwarded to an
// unclaimed endpoint are silently dropped by the switch).
func (f *Fleet) WaitReady(deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for i := 0; i < f.shards; i++ {
		for {
			// Short per-ping timeout: a ping to a not-yet-claimed endpoint
			// is dropped by the switch, so only the timeout ends the wait.
			if _, err := f.conn.Call(ssi.ShardDest(i), callPing, nil, 250*time.Millisecond); err == nil {
				break
			} else if time.Now().After(limit) {
				return fmt.Errorf("scenario: shard %d not ready within %v: %w", i, deadline, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// Infra is the fleet as the protocols' SSI: a shard set whose node i is
// remote shard i.
func (f *Fleet) Infra() *ssi.ShardSet {
	nodes := make([]ssi.Node, f.shards)
	for i := range nodes {
		nodes[i] = &remoteShard{conn: f.conn, shard: i, ready: make(chan struct{}, 1)}
	}
	return ssi.NewShardSet(nodes)
}

// remoteShard is one remote SSI process as a shard-set node. The process
// receives the forwarded copy of every upload from the switch and records
// its grouping leakage where it happens, so Receive and ObserveGroup send
// nothing. It streams each chunk back as a frame to the handle's
// endpoint, where frames queue until the collection goroutine hands them
// to emit, at Receive and at FinishStream: emit keeps the one writer
// ssi.Node promises it.
type remoteShard struct {
	conn  *transport.TCP
	shard int
	emit  func([]netsim.Envelope)
	got   map[string]int // chunk frames emitted, per node incarnation
	ready chan struct{}  // signalled when a frame is queued

	mu     sync.Mutex
	frames []netsim.Envelope // chunk frames not yet emitted
}

// BindTrace forwards the trace context, so the partition span the node
// opens at its first upload parents under it across the process boundary
// (best effort: a respawned node never hears of it).
func (r *remoteShard) BindTrace(ctx obs.SpanContext) {
	body := binary.LittleEndian.AppendUint64(nil, ctx.Trace)
	r.conn.Call(ssi.ShardDest(r.shard), callBindTrace, binary.LittleEndian.AppendUint64(body, ctx.Span), callTimeout)
}

// StartStream claims the endpoint the node streams its chunk frames to.
// The node cuts chunks of its plan's ChunkSize, which is the chunkSize
// RunQuerier runs the protocol with.
func (r *remoteShard) StartStream(_ int, emit func([]netsim.Envelope)) error {
	r.emit, r.got = emit, map[string]int{}
	return r.conn.Handle(chunkDest(r.shard), func(frame netsim.Envelope) {
		r.mu.Lock()
		r.frames = append(r.frames, frame)
		r.mu.Unlock()
		select {
		case r.ready <- struct{}{}:
		default:
		}
	})
}

// Receive hands the chunks that arrived so far to emit.
func (r *remoteShard) Receive(netsim.Envelope) { r.drain() }
func (r *remoteShard) ObserveGroup([]byte)     {}

// drain emits the queued chunk frames in arrival order, each split back
// into its chunk.
func (r *remoteShard) drain() {
	r.mu.Lock()
	frames := r.frames
	r.frames = nil
	r.mu.Unlock()
	for _, f := range frames {
		r.got[f.From]++
		var chunk []netsim.Envelope
		gquery.EachUpload(f, func(e netsim.Envelope) bool {
			chunk = append(chunk, e)
			return true
		})
		r.emit(chunk)
	}
}

// FinishStream asks the node to flush its stream, retrying across the
// respawn window of a restart plan and past a crashed node's empty
// reply. The node replies with the number of chunk frames its
// incarnation sent, then the incarnation's name, which each of its
// frames carries as its sender. The reply reaches the waiting call
// directly and can overtake frames still queued for dispatch, so the
// handle emits until it has that many frames of that incarnation. A
// crashed predecessor's frames reached the wire before any of them.
func (r *remoteShard) FinishStream() error {
	var reply []byte
	var err error
	for range finishRetries {
		if reply, err = r.conn.Call(ssi.ShardDest(r.shard), callFinish, nil, callTimeout); err == nil && len(reply) >= 4 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	switch {
	case err != nil:
		return fmt.Errorf("scenario: finish stream: %w", err)
	case len(reply) < 4:
		return errors.New("scenario: finish stream: short reply")
	}
	want, inc := int(binary.LittleEndian.Uint32(reply)), string(reply[4:])
	timeout := time.NewTimer(callTimeout)
	defer timeout.Stop()
	for r.drain(); r.got[inc] < want; r.drain() {
		select {
		case <-r.ready:
		case <-timeout.C:
			return fmt.Errorf("scenario: shard %d sent %d chunk frames, %d arrived", r.shard, want, r.got[inc])
		}
	}
	return nil
}

// Snapshot fetches one shard's report (observations + obs snapshot).
func (f *Fleet) Snapshot(shard int) (ShardReport, error) {
	reply, err := f.conn.Call(ssi.ShardDest(shard), callSnapshot, nil, callTimeout)
	if err != nil {
		return ShardReport{}, err
	}
	var rep ShardReport
	if err := json.Unmarshal(reply, &rep); err != nil {
		return ShardReport{}, err
	}
	return rep, nil
}

// Telemetry pulls shard's live obs snapshot — the fleet scrape
// primitive. The shard answers from its current registry state, so
// successive calls see counters move while the run is still going.
func (f *Fleet) Telemetry(shard int) (obs.Snapshot, error) {
	reply, err := f.conn.Call(ssi.ShardDest(shard), callTelemetry, nil, callTimeout)
	if err != nil {
		return obs.Snapshot{}, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(reply, &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("scenario: telemetry of shard %d: %w", shard, err)
	}
	return snap, nil
}

// Shards returns the fleet width.
func (f *Fleet) Shards() int { return f.shards }

// Ping answers whether one shard currently responds on the control
// channel — the /healthz liveness probe.
func (f *Fleet) Ping(shard int) bool {
	_, err := f.conn.Call(ssi.ShardDest(shard), callPing, nil, 250*time.Millisecond)
	return err == nil
}

// Stop asks every shard process to exit after replying. Errors are
// ignored: a shard that already died is already stopped.
func (f *Fleet) Stop() {
	for i := 0; i < f.shards; i++ {
		f.conn.Call(ssi.ShardDest(i), callStop, nil, callTimeout)
	}
}

// ShardReport is what one SSI node reports at snapshot/exit time.
type ShardReport struct {
	Shard        int
	Observations ssi.Observations // what the node could learn
	ExitedEarly  bool             // restart plan: the planned mid-collection exit fired
	Obs          json.RawMessage  `json:",omitempty"` // node-local obs snapshot
}

// ServeSSI runs one SSI node over conn: it claims the shard endpoint,
// ingests forwarded upload frames through a FrameSink, splitting each
// into its tuples, and streams each chunk back to the querier as one
// frame the moment it fills. It serves the control calls until a stop
// call arrives, the connection dies, or — when exitAfter > 0 — the node
// has ingested exitAfter tuples (the planned crash of a restart
// scenario; the process is expected to exit and be respawned empty). The
// returned report is what the process prints on stdout for pdsd to
// collect.
func ServeSSI(conn *transport.TCP, shard int, p Plan, exitAfter int) (ShardReport, error) {
	if p.ChunkSize < 1 {
		return ShardReport{}, fmt.Errorf("scenario: plan %s has chunk size %d", p.Name, p.ChunkSize)
	}
	reg := obs.NewRegistry()
	conn.SetObserver(reg)
	srv := ssi.New(conn, p.Mode, p.Behavior.ForShard(shard))
	sink := transport.NewFrameSink()
	// The incarnation's name, which its chunk frames carry as their
	// sender: a respawned process dials under the same node name, but not
	// at the same instant.
	inc := fmt.Sprintf("%s@%d", conn.Name(), time.Now().UnixNano())

	var (
		mu       sync.Mutex
		received int  // tuples ingested, towards exitAfter
		open     bool // a stream is open
		sent     int  // chunk frames the current or last stream sent
		early    bool
	)
	done := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(done) }) }

	report := func() ShardReport {
		mu.Lock()
		defer mu.Unlock()
		rep := ShardReport{Shard: shard, Observations: srv.Observations(), ExitedEarly: early}
		if b, err := reg.JSON(); err == nil {
			rep.Obs = b
		}
		return rep
	}
	emit := func(chunk []netsim.Envelope) {
		conn.Send(netsim.Envelope{From: inc, To: chunkDest(shard), Kind: "chunk", Payload: gquery.AppendFrame(nil, chunk)})
		sent++
	}

	conn.OnCall(callPing, func(netsim.Envelope, []byte) []byte { return []byte("ok") })
	conn.OnCall(callBindTrace, func(_ netsim.Envelope, body []byte) []byte {
		if len(body) >= 16 {
			srv.BindTrace(obs.SpanContext{
				Trace: binary.LittleEndian.Uint64(body),
				Span:  binary.LittleEndian.Uint64(body[8:]),
			})
		}
		return nil
	})
	conn.OnCall(callFinish, func(netsim.Envelope, []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		if early {
			return nil // a crashed node answers nothing the handle accepts
		}
		if open {
			srv.FinishStream()
			open = false
		}
		return append(binary.LittleEndian.AppendUint32(nil, uint32(sent)), inc...)
	})
	conn.OnCall(callSnapshot, func(netsim.Envelope, []byte) []byte {
		b, _ := json.Marshal(report())
		return b
	})
	conn.OnCall(callTelemetry, func(netsim.Envelope, []byte) []byte {
		b, _ := json.Marshal(reg.Snapshot())
		return b
	})
	conn.OnCall(callStop, func(netsim.Envelope, []byte) []byte {
		// The reply is written by the dispatcher after this handler
		// returns, so the teardown must not race it: delay the stop signal
		// past the reply round trip.
		time.AfterFunc(200*time.Millisecond, stop)
		return []byte("ok")
	})

	// One upload frame splits into its tuples here, the first of them
	// opening the stream; a crash inside a frame loses the rest of it
	// along with the partial chunk, and nothing lands after the crash.
	ingest := func(e netsim.Envelope) bool {
		mu.Lock()
		defer mu.Unlock()
		if early {
			return false
		}
		if !open {
			srv.StartStream(p.ChunkSize, emit) // cannot fail: the chunk size was checked, no stream is open
			open, sent = true, 0
		}
		srv.Receive(e)
		received++
		if exitAfter > 0 && received == exitAfter {
			early = true
			stop()
		}
		return !early
	}
	if err := conn.Handle(ssi.ShardDest(shard), func(e netsim.Envelope) {
		sink.Accept(e, func(frame netsim.Envelope) { gquery.EachUpload(frame, ingest) })
	}); err != nil {
		return ShardReport{}, err
	}

	select {
	case <-done:
		return report(), nil
	case <-conn.Done():
		if err := conn.Err(); err != nil {
			return report(), err
		}
		return report(), errors.New("scenario: connection closed")
	}
}
