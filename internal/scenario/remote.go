// The multi-process seam of a scenario: RemoteInfra is the querier-side
// stand-in for the SSI (gquery.Infra over control-channel RPC), ServeSSI
// is the node-side loop a pdsd SSI process runs. Data flows over the
// protocol wire itself — the querier's uploads are forwarded by the
// switch to whichever process claimed the shard endpoint, and the
// FrameSink collapses the ARQ stream back to exactly-once envelopes — so
// only partitioning, trace binding and snapshot collection ride RPC.
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
	callPartition = "scn/part"
	callSnapshot  = "scn/snap"
	callStop      = "scn/stop"
	// callTelemetry pulls a live obs snapshot from a running node — the
	// fleet scrape op. Unlike callSnapshot (the end-of-run report), it is
	// served mid-collection and returns only the registry, so a
	// coordinator can poll it on every HTTP scrape.
	callTelemetry = "scn/tele"
)

// callTimeout bounds one control round trip; partitionRetries covers the
// respawn window of a restart plan (the shard endpoint is unclaimed while
// pdsd relaunches the process, so calls in that window time out).
const (
	callTimeout      = 2 * time.Second
	partitionRetries = 8
)

// RemoteInfra drives remote SSI shard processes through the control
// channel. It satisfies gquery.Infra: Receive is a no-op because the
// remote node ingests the forwarded wire frames itself.
type RemoteInfra struct {
	conn   *transport.TCP
	shards int
}

// NewRemoteInfra returns an infra fronting n remote shards reachable
// through conn.
func NewRemoteInfra(conn *transport.TCP, n int) *RemoteInfra {
	if n < 1 {
		n = 1
	}
	return &RemoteInfra{conn: conn, shards: n}
}

// WaitReady pings every shard until it answers or the deadline passes —
// the startup barrier before the first upload (frames forwarded to an
// unclaimed endpoint are silently dropped by the switch).
func (r *RemoteInfra) WaitReady(deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for i := 0; i < r.shards; i++ {
		for {
			// Short per-ping timeout: a ping to a not-yet-claimed endpoint
			// is dropped by the switch, so only the timeout ends the wait.
			if _, err := r.conn.Call(Dest(i), callPing, nil, 250*time.Millisecond); err == nil {
				break
			} else if time.Now().After(limit) {
				return fmt.Errorf("scenario: shard %d not ready within %v: %w", i, deadline, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// Receive is a no-op: the remote shard receives the forwarded copy of
// every upload directly from the switch.
func (r *RemoteInfra) Receive(netsim.Envelope) {}

// Partition asks every shard to partition its inbox and concatenates the
// chunk lists in shard order — the same order ssi.ShardSet uses. Calls
// are retried across the respawn window of a restart plan.
func (r *RemoteInfra) Partition(chunkSize int) ([][]netsim.Envelope, error) {
	body := make([]byte, 4)
	binary.LittleEndian.PutUint32(body, uint32(chunkSize))
	var all [][]netsim.Envelope
	for i := 0; i < r.shards; i++ {
		var reply []byte
		var err error
		for attempt := 0; attempt < partitionRetries; attempt++ {
			reply, err = r.conn.Call(Dest(i), callPartition, body, callTimeout)
			if err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: partition of shard %d: %w", i, err)
		}
		if len(reply) < 1 {
			return nil, fmt.Errorf("scenario: partition of shard %d: empty reply", i)
		}
		if reply[0] != 0 {
			return nil, fmt.Errorf("scenario: shard %d: %s", i, reply[1:])
		}
		chunks, err := decodeChunks(reply[1:])
		if err != nil {
			return nil, fmt.Errorf("scenario: partition of shard %d: %w", i, err)
		}
		all = append(all, chunks...)
	}
	return all, nil
}

// ObserveGroup is a no-op: grouping leakage is recorded where it happens,
// on the remote node.
func (r *RemoteInfra) ObserveGroup([]byte) {}

// BindTrace forwards the querier's partition-phase span context so the
// remote partition spans parent under it across the process boundary.
// Best effort: a shard mid-respawn simply loses the parent link.
func (r *RemoteInfra) BindTrace(ctx obs.SpanContext) {
	body := make([]byte, 16)
	binary.LittleEndian.PutUint64(body, ctx.Trace)
	binary.LittleEndian.PutUint64(body[8:], ctx.Span)
	for i := 0; i < r.shards; i++ {
		r.conn.Call(Dest(i), callBindTrace, body, callTimeout)
	}
}

// Dest routes one PDS upload to its shard endpoint.
func (r *RemoteInfra) Dest(pds string) string {
	if r.shards <= 1 {
		return Dest(0)
	}
	return Dest(ssi.ShardOf(pds, r.shards))
}

// Snapshot fetches one shard's report (observations + obs snapshot).
func (r *RemoteInfra) Snapshot(shard int) (ShardReport, error) {
	reply, err := r.conn.Call(Dest(shard), callSnapshot, nil, callTimeout)
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
func (r *RemoteInfra) Telemetry(shard int) (obs.Snapshot, error) {
	reply, err := r.conn.Call(Dest(shard), callTelemetry, nil, callTimeout)
	if err != nil {
		return obs.Snapshot{}, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(reply, &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("scenario: telemetry of shard %d: %w", shard, err)
	}
	return snap, nil
}

// Shards returns the fleet width this infra fronts.
func (r *RemoteInfra) Shards() int { return r.shards }

// Ping answers whether one shard currently responds on the control
// channel — the /healthz liveness probe.
func (r *RemoteInfra) Ping(shard int) bool {
	_, err := r.conn.Call(Dest(shard), callPing, nil, 250*time.Millisecond)
	return err == nil
}

// Stop asks every shard process to exit after replying. Errors are
// ignored: a shard that already died is already stopped.
func (r *RemoteInfra) Stop() {
	for i := 0; i < r.shards; i++ {
		r.conn.Call(Dest(i), callStop, nil, callTimeout)
	}
}

// ShardReport is what one SSI node reports at snapshot/exit time.
type ShardReport struct {
	Shard            int
	Received         int
	DistinctPayloads int
	ExitedEarly      bool            // restart plan: the planned mid-collection exit fired
	Obs              json.RawMessage `json:",omitempty"` // node-local obs snapshot
}

// ServeSSI runs one SSI node over conn: it claims the shard endpoint,
// ingests forwarded upload frames through a FrameSink, splitting each
// into its tuples, and serves the control calls until a stop call
// arrives, the connection dies, or — when exitAfter > 0 — the node has
// ingested exitAfter tuples (the planned crash of a restart scenario;
// the process is expected to exit and be respawned empty). The returned report is what the process prints on
// stdout for pdsd to collect.
func ServeSSI(conn *transport.TCP, shard int, p Plan, exitAfter int) (ShardReport, error) {
	reg := obs.NewRegistry()
	conn.SetObserver(reg)
	srv := ssi.New(conn, p.Mode, p.Behavior)
	sink := transport.NewFrameSink()

	var (
		mu       sync.Mutex
		received int
		early    bool
	)
	done := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(done) }) }

	report := func() ShardReport {
		mu.Lock()
		defer mu.Unlock()
		o := srv.Observations()
		rep := ShardReport{
			Shard:            shard,
			Received:         received,
			DistinctPayloads: o.DistinctPayloads,
			ExitedEarly:      early,
		}
		if b, err := reg.JSON(); err == nil {
			rep.Obs = b
		}
		return rep
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
	conn.OnCall(callPartition, func(_ netsim.Envelope, body []byte) []byte {
		if len(body) < 4 {
			return append([]byte{1}, "bad partition request"...)
		}
		chunks, err := srv.Partition(int(binary.LittleEndian.Uint32(body)))
		if err != nil {
			return append([]byte{1}, err.Error()...)
		}
		return append([]byte{0}, encodeChunks(chunks)...)
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

	// One upload frame splits into its tuples here; a crash inside a
	// frame loses the rest of it, and nothing lands after the crash.
	ingest := func(e netsim.Envelope) bool {
		mu.Lock()
		defer mu.Unlock()
		if early {
			return false
		}
		srv.Receive(e)
		received++
		if exitAfter > 0 && received == exitAfter {
			early = true
			stop()
		}
		return !early
	}
	if err := conn.Handle(Dest(shard), func(e netsim.Envelope) {
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

// --- chunk codec: [][]netsim.Envelope over the control channel ---

func encodeChunks(chunks [][]netsim.Envelope) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(chunks)))
	for _, c := range chunks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c)))
		for _, e := range c {
			out = appendString(out, e.From)
			out = appendString(out, e.To)
			out = appendString(out, e.Kind)
			out = binary.LittleEndian.AppendUint64(out, e.Ctx.Trace)
			out = binary.LittleEndian.AppendUint64(out, e.Ctx.Span)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(e.Payload)))
			out = append(out, e.Payload...)
		}
	}
	return out
}

var errShortChunks = errors.New("scenario: truncated chunk encoding")

func decodeChunks(b []byte) ([][]netsim.Envelope, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, err
	}
	chunks := make([][]netsim.Envelope, 0, n)
	for i := uint32(0); i < n; i++ {
		m, rest, err := takeUint32(b)
		if err != nil {
			return nil, err
		}
		b = rest
		chunk := make([]netsim.Envelope, 0, m)
		for j := uint32(0); j < m; j++ {
			var e netsim.Envelope
			if e.From, b, err = takeString(b); err != nil {
				return nil, err
			}
			if e.To, b, err = takeString(b); err != nil {
				return nil, err
			}
			if e.Kind, b, err = takeString(b); err != nil {
				return nil, err
			}
			if len(b) < 16 {
				return nil, errShortChunks
			}
			e.Ctx.Trace = binary.LittleEndian.Uint64(b)
			e.Ctx.Span = binary.LittleEndian.Uint64(b[8:])
			b = b[16:]
			var pl uint32
			if pl, b, err = takeUint32(b); err != nil {
				return nil, err
			}
			if uint32(len(b)) < pl {
				return nil, errShortChunks
			}
			if pl > 0 {
				e.Payload = append([]byte(nil), b[:pl]...)
			}
			b = b[pl:]
			chunk = append(chunk, e)
		}
		chunks = append(chunks, chunk)
	}
	if len(b) != 0 {
		return nil, errors.New("scenario: trailing bytes after chunk encoding")
	}
	return chunks, nil
}

func appendString(out []byte, s string) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

func takeUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShortChunks
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errShortChunks
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, errShortChunks
	}
	return string(b[:n]), b[n:], nil
}

// Interface conformance.
var _ gquery.Infra = (*RemoteInfra)(nil)
