package gquery

import (
	"bytes"
	"sync"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
)

// observedRun executes one serial secure-agg on fresh instances, merging
// the run's metrics into reg.
func observedRun(t *testing.T, reg *obs.Registry, parts []Participant, workers int) (Result, RunStats) {
	t.Helper()
	kr := mustKeyring(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	res, stats, err := New(WithWorkers(workers), WithObserver(reg)).SecureAgg(net, srv, parts, kr, 7)
	if err != nil {
		t.Fatalf("secure-agg: %v", err)
	}
	return res, stats
}

// TestObserverSnapshotByteIdentical is the determinism contract end to end:
// two identical serial runs must export byte-identical snapshots, spans and
// simulated-time durations included, even though the ciphertext contents of
// the two runs differ.
func TestObserverSnapshotByteIdentical(t *testing.T) {
	parts := makeParts(18, 4, testDomain, 21)
	var snaps [][]byte
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		observedRun(t, reg, parts, 1)
		data, err := reg.Snapshot().JSON()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		snaps = append(snaps, data)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Errorf("serial snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", snaps[0], snaps[1])
	}
}

// tapTraffic taps net and returns the traffic the tap has seen so far:
// the oracle a run's registry-derived wire totals must equal.
func tapTraffic(net *netsim.Network) func() netsim.Stats {
	var mu sync.Mutex
	var st netsim.Stats
	net.Tap(func(e netsim.Envelope) {
		mu.Lock()
		st.Messages, st.Bytes = st.Messages+1, st.Bytes+int64(len(e.Payload))
		mu.Unlock()
	})
	return func() netsim.Stats {
		mu.Lock()
		defer mu.Unlock()
		return st
	}
}

// TestRunStatsDerivedFromRegistry checks that the cost fields of RunStats —
// derived from the run's metrics registry at the end of a run — agree with
// the registry's own counters and with what a tap on the wire saw.
func TestRunStatsDerivedFromRegistry(t *testing.T) {
	parts := makeParts(20, 5, testDomain, 22)
	kr := mustKeyring(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	tapped := tapTraffic(net)
	reg := obs.NewRegistry()
	_, stats, err := New(WithObserver(reg)).SecureAgg(net, srv, parts, kr, 7)
	if err != nil {
		t.Fatalf("secure-agg: %v", err)
	}
	if stats.Net != tapped() || stats.Net.Messages == 0 {
		t.Errorf("derived Net %+v != tapped traffic %+v", stats.Net, tapped())
	}
	if got := reg.CounterValue(netsim.MetricMessages); got != stats.Net.Messages {
		t.Errorf("registry messages %d != stats %d", got, stats.Net.Messages)
	}
	if got := reg.CounterValue(netsim.MetricBytes); got != stats.Net.Bytes {
		t.Errorf("registry bytes %d != stats %d", got, stats.Net.Bytes)
	}
	if got := reg.CounterValue(MetricChunks); got != int64(stats.Chunks) {
		t.Errorf("registry chunks %d != stats %d", got, stats.Chunks)
	}
	if got := reg.CounterValue(MetricWorkerCalls); got != int64(stats.WorkerCalls) {
		t.Errorf("registry worker calls %d != stats %d", got, stats.WorkerCalls)
	}
	// A clean run accrues no reliability cost anywhere.
	if stats.Retransmits != 0 || stats.AckMessages != 0 || stats.TagFailures != 0 || stats.RetryBackoff != 0 {
		t.Errorf("clean run accrued reliability cost: %+v", stats)
	}
}

// TestObserverFaultsDistinguishable routes a faulty run through the
// registry and checks wire faults land under netsim_faults_total while SSI
// corruption is absent — and vice versa for a corrupting SSI, keeping the
// two misbehavior planes distinguishable in one snapshot.
func TestObserverFaultsDistinguishable(t *testing.T) {
	parts := makeParts(15, 4, testDomain, 23)
	kr := mustKeyring(t)

	wireReg := obs.NewRegistry()
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	plan := &netsim.FaultPlan{Seed: 7, Default: netsim.FaultSpec{Drop: 0.2}}
	if _, _, err := New(WithFaults(plan), WithObserver(wireReg)).SecureAgg(net, srv, parts, kr, 7); err != nil {
		t.Fatalf("faulty-wire run: %v", err)
	}
	snap := wireReg.Snapshot()
	if n := counterFamilyTotal(snap, netsim.MetricFaults); n == 0 {
		t.Error("wire faults not recorded under netsim_faults_total")
	}
	if n := counterFamilyTotal(snap, ssi.MetricCorrupt); n != 0 {
		t.Errorf("honest SSI recorded %d corruptions", n)
	}

	ssiReg := obs.NewRegistry()
	net2, srv2 := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.3, Seed: 13})
	_, _, err := New(WithObserver(ssiReg)).SecureAgg(net2, srv2, parts, kr, 7)
	if err == nil {
		t.Fatal("corrupting SSI not detected")
	}
	snap2 := ssiReg.Snapshot()
	if n := counterFamilyTotal(snap2, ssi.MetricCorrupt); n == 0 {
		t.Error("SSI corruption not recorded under ssi_corrupt_total")
	}
	if n := counterFamilyTotal(snap2, netsim.MetricFaults); n != 0 {
		t.Errorf("clean wire recorded %d faults", n)
	}
}

// counterFamilyTotal sums every series of a family in a snapshot.
func counterFamilyTotal(s obs.Snapshot, family string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == family || len(c.Name) > len(family) && c.Name[:len(family)+1] == family+"{" {
			total += c.Value
		}
	}
	return total
}

// TestSharedRegistryUnderFleet hammers one user registry from concurrent
// full-fleet runs; totals must be exact and the run must be race-clean
// (the -race CI target executes this test).
func TestSharedRegistryUnderFleet(t *testing.T) {
	parts := makeParts(12, 4, testDomain, 24)
	reg := obs.NewRegistry()
	_, soloStats := observedRun(t, obs.NewRegistry(), parts, 0)

	kr := mustKeyring(t)
	const runs = 4
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := netsim.New()
			srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
			if _, _, err := New(WithWorkers(0), WithObserver(reg)).SecureAgg(net, srv, parts, kr, 7); err != nil {
				t.Errorf("fleet run: %v", err)
			}
		}()
	}
	wg.Wait()

	if got, want := reg.CounterValue(MetricChunks), int64(runs*soloStats.Chunks); got != want {
		t.Errorf("chunks after %d merged runs: got %d, want %d", runs, got, want)
	}
	if got, want := reg.CounterValue(netsim.MetricMessages), runs*soloStats.Net.Messages; got != want {
		t.Errorf("messages after %d merged runs: got %d, want %d", runs, got, want)
	}
}
