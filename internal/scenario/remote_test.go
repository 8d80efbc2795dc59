package scenario

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pds/internal/gquery"
	"pds/internal/netsim"
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
		total += sr.Received
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
	p := Plan{
		Name: "test-lossy", Tokens: 48, TuplesEach: 3, Seed: 9,
		Shards: 2, ChunkSize: 8, Workers: 2,
		Faults: &netsim.FaultPlan{
			Seed:    13,
			Default: netsim.FaultSpec{Drop: 0.15, Duplicate: 0.1, Delay: 0.1, Reorder: 0.05},
		},
		MaxRetries: 25, RestartShard: -1,
	}
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
		total += sr.Received
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
// scenario layer. A crash inside an upload frame takes the rest of the
// frame with it on both sides: the crashed SSI holds exactly the tuples
// up to the crash point, and no later incarnation receives the rest.
func TestRemoteMatchesInProcess(t *testing.T) {
	clean, _ := ByName("clean-64")
	for _, p := range []Plan{clean, restartMidFrame()} {
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
			if p.RestartShard < 0 {
				return
			}
			frameEnd := (p.RestartAfter + p.TuplesEach - 1) / p.TuplesEach * p.TuplesEach
			before, after := restartSplit(t, p)
			if before != p.RestartAfter || after != p.Tokens*p.TuplesEach-frameEnd {
				t.Errorf("in-process: crashed SSI held %d tuples, its respawn %d; want %d and %d",
					before, after, p.RestartAfter, p.Tokens*p.TuplesEach-frameEnd)
			}
			rep := <-crashed
			// The respawn misses whatever arrives while it restarts, so
			// only an upper bound holds for it remotely.
			if rep.Received != p.RestartAfter || remote.SSI[0].Received > p.Tokens*p.TuplesEach-frameEnd {
				t.Errorf("multi-process: crashed SSI held %d tuples, its respawn %d; want %d and at most %d",
					rep.Received, remote.SSI[0].Received, p.RestartAfter, p.Tokens*p.TuplesEach-frameEnd)
			}
		})
	}
}

// restartSplit runs a restart plan in-process and reports how many
// tuples the crashed SSI and its respawn each received.
func restartSplit(t *testing.T, p Plan) (before, after int) {
	t.Helper()
	w := netsim.New()
	var servers []*ssi.Server
	infra := &restartInfra{after: p.RestartAfter, fresh: func() gquery.Infra {
		srv := ssi.New(w, p.Mode, p.Behavior)
		servers = append(servers, srv)
		return srv
	}}
	infra.inner = infra.fresh()
	kr, err := p.Keyring()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gquery.New(p.Options(nil)...).SecureAgg(w, infra, p.Participants(), kr, p.ChunkSize); !errors.Is(err, gquery.ErrDetected) {
		t.Fatalf("restart run: %v, want a detection", err)
	}
	if len(servers) != 2 {
		t.Fatalf("%d SSI incarnations, want 2", len(servers))
	}
	return servers[0].Observations().Envelopes, servers[1].Observations().Envelopes
}
