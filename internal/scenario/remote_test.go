package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
	"pds/internal/transport"
)

// startFleet brings up a switch, one ServeSSI loop per shard (each on its
// own connection, as in the multi-process deployment), and a querier
// connection — the whole topology of a pdsd run, minus the process
// boundaries, which cmd/pdsd's own test adds. A restart plan's shard
// crashes after RestartAfter tuples, its connection dies with it, and it
// is respawned empty on a fresh one; the crashed incarnation's report
// arrives on the returned channel.
func startFleet(t *testing.T, p Plan) (*transport.TCP, <-chan ShardReport) {
	t.Helper()
	sw, err := transport.NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	dial := func(name string) *transport.TCP {
		conn, err := transport.Dial(sw.Addr(), name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	done := make(chan error, p.Shards)
	crashed := make(chan ShardReport, 1)
	for i := 0; i < p.Shards; i++ {
		exitAfter := 0
		if i == p.RestartShard {
			exitAfter = p.RestartAfter
		}
		conn := dial(fmt.Sprintf("ssinode-%d", i))
		go func(i int, conn *transport.TCP) {
			rep, err := ServeSSI(conn, i, p, exitAfter)
			if err == nil && rep.ExitedEarly {
				crashed <- rep
				conn.Close()
				conn, err = transport.Dial(sw.Addr(), fmt.Sprintf("ssinode-%d-respawn", i))
				if err == nil {
					defer conn.Close()
					_, err = ServeSSI(conn, i, p, 0)
				}
			}
			done <- err
		}(i, conn)
	}
	t.Cleanup(func() {
		for i := 0; i < p.Shards; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("ssi node: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("ssi node did not stop")
				return
			}
		}
	})
	return dial("querier"), crashed
}

// restartMidFrame is restart-64 with its crash point inside a PDS's
// upload frame: with four tuples a frame, tuples 101–104 travel
// together, and a crash after tuple 102 loses 103 and 104 with the
// process.
func restartMidFrame() Plan {
	p, _ := ByName("restart-64")
	p.Name = "restart-64-mid-frame"
	p.RestartAfter = 102
	return p
}

// restartSharded is restart-64 over three shards, the middle one
// crashing inside a frame: its 50th tuple is the second of a frame.
func restartSharded() Plan {
	p, _ := ByName("restart-64")
	p.Name = "restart-64-sharded"
	p.Shards, p.RestartShard, p.RestartAfter = 3, 1, 50
	return p
}

// maliciousSharded is clean-64's population on two weakly-malicious
// shards, each attacking under its own seed (Behavior.ForShard).
func maliciousSharded() Plan {
	p, _ := ByName("clean-64")
	p.Name = "malicious-64-sharded"
	p.Shards = 2
	p.Mode, p.Behavior = ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.05, DuplicateRate: 0.05, Seed: 5}
	p.ExpectDetection = true
	return p
}

// lossySharded is a small plan on two shards over a lossy wire.
func lossySharded() Plan {
	return Plan{
		Name: "test-lossy", Tokens: 48, TuplesEach: 3, Seed: 9,
		Shards: 2, ChunkSize: 8, Workers: 2,
		Faults: &netsim.FaultPlan{
			Seed:    13,
			Default: netsim.FaultSpec{Drop: 0.15, Duplicate: 0.1, Delay: 0.1, Reorder: 0.05},
		},
		MaxRetries: 25, RestartShard: -1,
	}
}

// A clean named plan through the remote path: RunQuerier against real
// ServeSSI nodes over TCP must be exact, collect a snapshot from every
// shard, and leave the nodes stoppable.
func TestRemoteCleanPlan(t *testing.T) {
	p, _ := ByName("clean-64")
	q, _ := startFleet(t, p)
	rep, err := RunQuerier(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || !rep.Exact {
		t.Fatalf("remote run not exact: %+v", rep)
	}
	if rep.Mode != "multi-process" {
		t.Fatalf("mode = %q", rep.Mode)
	}
	if len(rep.SSI) != p.Shards {
		t.Fatalf("collected %d shard snapshots, want %d", len(rep.SSI), p.Shards)
	}
	total := 0
	for _, sr := range rep.SSI {
		total += sr.Observations.Envelopes
		if len(sr.Obs) == 0 {
			t.Fatalf("shard %d snapshot missing obs", sr.Shard)
		}
	}
	if want := p.Tokens * p.TuplesEach; total != want {
		t.Fatalf("shards ingested %d uploads, want %d", total, want)
	}
}

// A sharded lossy plan through the remote path: ARQ runs at the querier,
// the FrameSinks on the nodes collapse retransmissions back to
// exactly-once, and the aggregate stays exact.
func TestRemoteShardedLossyPlan(t *testing.T) {
	p := lossySharded()
	q, _ := startFleet(t, p)
	rep, err := RunQuerier(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || !rep.Exact {
		t.Fatalf("remote lossy run not exact: %+v", rep)
	}
	if rep.Stats.Retransmits == 0 || rep.Stats.AckMessages == 0 {
		t.Fatalf("ARQ cost not surfaced: %+v", rep.Stats)
	}
	total := 0
	for _, sr := range rep.SSI {
		total += sr.Observations.Envelopes
	}
	// Exactly-once at the nodes despite duplicates and retransmissions on
	// the wire.
	if want := p.Tokens * p.TuplesEach; total != want {
		t.Fatalf("shards ingested %d uploads, want %d (dedup failed)", total, want)
	}
	if err := q.Err(); err != nil {
		t.Fatalf("querier wire error: %v", err)
	}
}

// The remote and in-process executors agree on the same plan: same
// aggregate surface, same verdict — the cross-substrate point of the
// scenario layer. Weakly-malicious shards realize the same attacks on
// both, and every shard observes the same envelopes and bytes on both:
// the SSI learns the same thing on either path. A crash inside an upload
// frame takes the rest of the frame with it on both sides: the crashed
// SSI holds exactly the tuples up to the crash point, and no later
// incarnation receives the rest.
func TestRemoteMatchesInProcess(t *testing.T) {
	clean, _ := ByName("clean-64")
	for _, p := range []Plan{clean, restartMidFrame(), restartSharded(), maliciousSharded(), lossySharded()} {
		t.Run(p.Name, func(t *testing.T) {
			local, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			q, crashed := startFleet(t, p)
			remote, err := RunQuerier(q, p)
			if err != nil {
				t.Fatal(err)
			}
			if local.Groups != remote.Groups || local.Total != remote.Total ||
				local.Exact != remote.Exact || local.OK != remote.OK || local.Detected != remote.Detected || !local.OK {
				t.Fatalf("executors diverge:\n in-process    %+v\n multi-process %+v", local, remote)
			}
			var remoteCorrupt int64
			for _, sr := range remote.SSI {
				remoteCorrupt += corruptTotal(t, sr.Obs)
			}
			if lc := corruptTotal(t, local.Obs); lc != remoteCorrupt || (p.Mode == ssi.WeaklyMalicious) != (lc > 0) {
				t.Errorf("%s: %d in-process, %d multi-process", ssi.MetricCorrupt, lc, remoteCorrupt)
			}
			if len(local.SSI) != p.Shards || len(remote.SSI) != p.Shards {
				t.Fatalf("%d in-process and %d multi-process shard reports, want %d", len(local.SSI), len(remote.SSI), p.Shards)
			}
			for i := range local.SSI {
				if i != p.RestartShard && !sameView(local.SSI[i].Observations, remote.SSI[i].Observations) {
					t.Errorf("shard %d observed %+v in-process, %+v multi-process", i, local.SSI[i].Observations, remote.SSI[i].Observations)
				}
			}
			if p.RestartShard < 0 {
				return
			}
			frameEnd := (p.RestartAfter + p.TuplesEach - 1) / p.TuplesEach * p.TuplesEach
			rest := restartShardTuples(p) - frameEnd
			crash, respawn, lost := restartSplit(t, p)
			if crash.Envelopes != p.RestartAfter || respawn.Envelopes != rest {
				t.Errorf("in-process: crashed SSI held %d tuples, its respawn %d; want %d and %d",
					crash.Envelopes, respawn.Envelopes, p.RestartAfter, rest)
			}
			// The run loses what the crashed SSI held: its partial chunk and
			// the rest of the crashing frame.
			if want := p.RestartAfter%p.ChunkSize + frameEnd - p.RestartAfter; lost != want {
				t.Errorf("in-process: the crash lost %d tuples, want %d", lost, want)
			}
			if o := local.SSI[p.RestartShard].Observations; !sameView(o, respawn) {
				t.Errorf("in-process report of the restarted shard: %+v, want the respawn's %+v", o, respawn)
			}
			rep := <-crashed
			// The respawn misses whatever arrives while it restarts, so
			// only an upper bound holds for it remotely.
			if o := remote.SSI[p.RestartShard].Observations; !sameView(rep.Observations, crash) ||
				o.Envelopes > respawn.Envelopes || o.Bytes > respawn.Bytes {
				t.Errorf("multi-process: crashed SSI observed %+v, its respawn %+v; want %+v and at most %+v",
					rep.Observations, o, crash, respawn)
			}
		})
	}
}

// sameView reports whether two SSI nodes observed the same envelopes and
// bytes.
func sameView(a, b ssi.Observations) bool { return a.Envelopes == b.Envelopes && a.Bytes == b.Bytes }

// corruptTotal sums the realized SSI misbehaviour in an obs snapshot.
func corruptTotal(t *testing.T, raw []byte) int64 {
	t.Helper()
	snap, err := obs.ParseSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, ssi.MetricCorrupt) {
			n += c.Value
		}
	}
	return n
}

// restartShardTuples counts the tuples a restart plan routes to its
// restarting shard.
func restartShardTuples(p Plan) int {
	route := ssi.NewShardSet(make([]ssi.Node, p.Shards))
	n := 0
	for _, part := range p.Participants() {
		if route.Route(part.ID) == p.RestartShard {
			n += len(part.Tuples)
		}
	}
	return n
}

// restartSplit runs a restart plan in-process, on the fleet localNodes
// builds, and reports what the crashed SSI and its respawn each observed
// and how many of the restarting shard's tuples never reached a fold.
func restartSplit(t *testing.T, p Plan) (crash, respawn ssi.Observations, lost int) {
	t.Helper()
	w := netsim.New()
	nodes := ssi.Servers(w, p.Shards, p.Mode, p.Behavior)
	var servers []*ssi.Server
	r := &restartNode{after: p.RestartAfter, fresh: func() *ssi.Server {
		srv := ssi.New(w, p.Mode, p.Behavior.ForShard(p.RestartShard))
		servers = append(servers, srv)
		return srv
	}}
	r.Server = r.fresh()
	nodes[p.RestartShard] = r
	ss := &emitCounter{ShardSet: ssi.NewShardSet(nodes)}
	kr, err := p.Keyring()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gquery.New(p.Options(nil)...).SecureAgg(w, ss, p.Participants(), kr, p.ChunkSize); !errors.Is(err, gquery.ErrDetected) {
		t.Fatalf("restart run: %v, want a detection", err)
	}
	if len(servers) != 2 {
		t.Fatalf("%d SSI incarnations, want 2", len(servers))
	}
	return servers[0].Observations(), servers[1].Observations(), p.Tokens*p.TuplesEach - ss.tuples
}

// emitCounter counts the tuples a shard set hands to the fold plane.
type emitCounter struct {
	*ssi.ShardSet
	tuples int
}

func (c *emitCounter) StartStream(chunkSize int, emit func([]netsim.Envelope)) error {
	return c.ShardSet.StartStream(chunkSize, func(chunk []netsim.Envelope) {
		c.tuples += len(chunk)
		emit(chunk)
	})
}

// A restart at a chunk boundary that is also a frame boundary loses
// nothing in-process: the crashed SSI had emitted every tuple it
// received, so the run is exact. (A remote respawn also misses the
// uploads of its restart window, so this holds in-process only.)
func TestRestartAtChunkBoundaryIsExact(t *testing.T) {
	p, _ := ByName("restart-64")
	p.RestartAfter, p.ExpectDetection = 96, false
	if p.RestartAfter%p.ChunkSize != 0 || p.RestartAfter%p.TuplesEach != 0 {
		t.Fatalf("crash point %d is not a chunk and frame boundary", p.RestartAfter)
	}
	rep, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || !rep.Exact || rep.Detected {
		t.Fatalf("restart after a flushed chunk: %+v", rep)
	}
}

// A remote node streams: once every upload but the last PDS's has
// reached it, it has sent one chunk frame for each chunk those uploads
// filled. The count is the node's own, read through the telemetry call
// its dispatcher serves after those uploads, so it does not race the
// wire; then the querier's shard set collects every tuple.
func TestRemoteNodeStreamsBeforeLastUpload(t *testing.T) {
	p, _ := ByName("clean-64")
	q, _ := startFleet(t, p)
	fleet := NewFleet(q, p.Shards)
	if err := fleet.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	ss := fleet.Infra()
	got := 0
	if err := ss.StartStream(p.ChunkSize, func(c []netsim.Envelope) { got += len(c) }); err != nil {
		t.Fatal(err)
	}
	parts := p.Participants()
	// An honest SSI never reads a payload, so any bytes upload.
	upload := func(part gquery.Participant) {
		recs := make([]netsim.Envelope, len(part.Tuples))
		for i := range recs {
			recs[i].Payload = []byte(fmt.Sprintf("%s#%d", part.ID, i))
		}
		ss.Receive(netsim.Envelope{From: part.ID})
		q.Send(netsim.Envelope{From: part.ID, To: ss.Dest(part.ID), Kind: "tuple", Payload: gquery.AppendFrame(nil, recs)})
	}
	for _, part := range parts[:len(parts)-1] {
		upload(part)
	}
	snap, err := fleet.Telemetry(0)
	if err != nil {
		t.Fatal(err)
	}
	sent := int64(0)
	for _, c := range snap.Counters {
		if c.Name == obs.Name(netsim.MetricKindMessages, "kind", "chunk") {
			sent = c.Value
		}
	}
	if want := int64((len(parts) - 1) * p.TuplesEach / p.ChunkSize); sent != want {
		t.Fatalf("node sent %d chunk frames before the last upload, want %d", sent, want)
	}
	upload(parts[len(parts)-1])
	if err := ss.FinishStream(); err != nil {
		t.Fatal(err)
	}
	fleet.Stop()
	if want := p.Tokens * p.TuplesEach; got != want {
		t.Fatalf("the querier collected %d tuples, want %d", got, want)
	}
}
