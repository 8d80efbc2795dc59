package gquery

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pds/internal/netsim"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// The property battery: every Part III protocol, serial and parallel,
// under clean and faulty wires and under a weakly-malicious SSI, must
// either complete with a result identical to the fault-free serial
// baseline or abort with a typed detection/retry error — never return a
// silently wrong answer. The battery is parameterized over the wire
// substrate (mkWire): the Test* functions here run it on the in-process
// simulator, tcpwire_test.go replays the identical matrix over the TCP
// transport.

// mkWire builds (or returns a shared) transport substrate for one run.
type mkWire func(t testing.TB) tnet.Transport

// simWire is the in-process simulator axis: a fresh network per run.
func simWire(testing.TB) tnet.Transport { return netsim.New() }

// fpResult canonicalizes a Result for cross-run comparison.
func fpResult(res Result) string {
	keys := make([]string, 0, len(res))
	for g := range res {
		keys = append(keys, g)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, g := range keys {
		fmt.Fprintf(&sb, "%s=%+v;", g, res[g])
	}
	return sb.String()
}

// fpBuckets canonicalizes a BucketResult.
func fpBuckets(res BucketResult) string {
	ids := make([]int, 0, len(res))
	for b := range res {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	var sb strings.Builder
	for _, b := range ids {
		fmt.Fprintf(&sb, "%d=%+v;", b, res[b])
	}
	return sb.String()
}

// protoRunner is one protocol under test: run returns a canonical
// fingerprint of the result.
type protoRunner struct {
	name string
	run  func(t *testing.T, parts []Participant, mode ssi.Mode, b ssi.Behavior, cfg config) (string, RunStats, error)
}

func batteryRunners(t *testing.T, mk mkWire) []protoRunner {
	t.Helper()
	kr := mustKeyring(t)
	sk := testPaillierKey(t)
	buckets, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	wires := func(t *testing.T, mode ssi.Mode, b ssi.Behavior) (tnet.Transport, *ssi.Server) {
		w := mk(t)
		return w, ssi.New(w, mode, b)
	}
	return []protoRunner{
		{"secure-agg", func(t *testing.T, parts []Participant, mode ssi.Mode, b ssi.Behavior, cfg config) (string, RunStats, error) {
			w, srv := wires(t, mode, b)
			res, stats, err := runSecureAgg(w, srv, parts, kr, 7, cfg)
			return fpResult(res), stats, err
		}},
		{"noise-none", func(t *testing.T, parts []Participant, mode ssi.Mode, b ssi.Behavior, cfg config) (string, RunStats, error) {
			w, srv := wires(t, mode, b)
			res, stats, err := runNoise(w, srv, parts, kr, testDomain, 0, NoNoise, 91, cfg)
			return fpResult(res), stats, err
		}},
		{"noise-white", func(t *testing.T, parts []Participant, mode ssi.Mode, b ssi.Behavior, cfg config) (string, RunStats, error) {
			w, srv := wires(t, mode, b)
			res, stats, err := runNoise(w, srv, parts, kr, testDomain, 1, WhiteNoise, 92, cfg)
			return fpResult(res), stats, err
		}},
		{"noise-ctrl", func(t *testing.T, parts []Participant, mode ssi.Mode, b ssi.Behavior, cfg config) (string, RunStats, error) {
			w, srv := wires(t, mode, b)
			res, stats, err := runNoise(w, srv, parts, kr, testDomain, 1, ControlledNoise, 93, cfg)
			return fpResult(res), stats, err
		}},
		{"histogram", func(t *testing.T, parts []Participant, mode ssi.Mode, b ssi.Behavior, cfg config) (string, RunStats, error) {
			w, srv := wires(t, mode, b)
			res, stats, err := runHistogram(w, srv, parts, kr, buckets, cfg)
			return fpBuckets(res), stats, err
		}},
		// The SSI folds Paillier ciphertexts itself, so the topology axis
		// runs the same protocol three times.
		{"paillier", func(t *testing.T, parts []Participant, mode ssi.Mode, b ssi.Behavior, cfg config) (string, RunStats, error) {
			w, srv := wires(t, mode, b)
			res, stats, err := runPaillierAgg(w, srv, parts, kr, sk.Public(), sk, cfg)
			return fpResult(res), stats, err
		}},
	}
}

// batteryTopologies is the fold-plane axis of the battery: the flat
// historical round trip and two tree shapes (degenerate binary, default
// arity).
func batteryTopologies() []Topology {
	return []Topology{Flat(), Tree(2), Tree(16)}
}

// batteryPlans are the wire conditions of the battery, clean included.
func batteryPlans() []struct {
	name string
	plan *netsim.FaultPlan
} {
	return []struct {
		name string
		plan *netsim.FaultPlan
	}{
		{"clean", nil},
		{"drop20", &netsim.FaultPlan{Seed: 101, Default: netsim.FaultSpec{Drop: 0.2}}},
		{"dup20", &netsim.FaultPlan{Seed: 102, Default: netsim.FaultSpec{Duplicate: 0.2}}},
		{"mixed", &netsim.FaultPlan{Seed: 103, Default: netsim.FaultSpec{Drop: 0.1, Duplicate: 0.1, Delay: 0.05, Reorder: 0.05}}},
	}
}

// TestPropertyFaultToleranceExact: with an honest SSI, every protocol ×
// execution mode × fault plan completes and matches the fault-free serial
// baseline exactly — the reliability layer recovers losses, absorbs
// duplicates and flushes delays without ever changing the answer. The
// true-data protocols must additionally match the plaintext reference.
func TestPropertyFaultToleranceExact(t *testing.T) {
	propertyFaultToleranceExact(t, simWire)
}

func propertyFaultToleranceExact(t *testing.T, mk mkWire) {
	runners := batteryRunners(t, mk)
	for _, wl := range []int64{31, 32} {
		parts := makeParts(12, 5, testDomain, wl)
		plainFP := fpResult(PlainResult(parts))
		for _, r := range runners {
			baseline, baseStats, err := r.run(t, parts, ssi.HonestButCurious, ssi.Behavior{}, config{workers: 1})
			if err != nil {
				t.Fatalf("%s baseline (workload %d): %v", r.name, wl, err)
			}
			if baseStats.Retransmits != 0 || baseStats.AckMessages != 0 || baseStats.RetryBackoff != 0 {
				t.Fatalf("%s clean baseline accrued reliability cost: %+v", r.name, baseStats)
			}
			if r.name == "secure-agg" || strings.HasPrefix(r.name, "noise") {
				if baseline != plainFP {
					t.Fatalf("%s baseline != plaintext reference", r.name)
				}
			}
			for _, workers := range []int{1, 8} {
				for _, topo := range batteryTopologies() {
					for _, fp := range batteryPlans() {
						name := fmt.Sprintf("%s/wl%d/w%d/%s/%s", r.name, wl, workers, topo, fp.name)
						t.Run(name, func(t *testing.T) {
							cfg := config{workers: workers, faults: fp.plan, maxRetries: 25, topology: topo}
							got, stats, err := r.run(t, parts, ssi.HonestButCurious, ssi.Behavior{}, cfg)
							if err != nil {
								t.Fatalf("honest run failed: %v (stats %+v)", err, stats)
							}
							if got != baseline {
								t.Fatalf("result diverges from fault-free serial baseline\n got %s\nwant %s", got, baseline)
							}
							if fp.plan != nil && stats.Net.Messages <= baseStats.Net.Messages {
								t.Errorf("faulty wire cost %d messages, want > clean %d (frames + acks)",
									stats.Net.Messages, baseStats.Net.Messages)
							}
						})
					}
				}
			}
		}
	}
}

// TestPropertyMaliciousNeverWrong: under a weakly-malicious SSI (with and
// without wire faults on top), a run either completes with the exact
// baseline result or aborts with an error matching ErrDetected — the
// covert adversary is never undetected AND effective.
func TestPropertyMaliciousNeverWrong(t *testing.T) {
	propertyMaliciousNeverWrong(t, simWire)
}

func propertyMaliciousNeverWrong(t *testing.T, mk mkWire) {
	runners := batteryRunners(t, mk)
	behaviors := []struct {
		name string
		b    ssi.Behavior
	}{
		{"drop", ssi.Behavior{DropRate: 0.2, Seed: 201}},
		{"dup", ssi.Behavior{DuplicateRate: 0.25, Seed: 202}},
		{"forge", ssi.Behavior{ForgeRate: 0.3, Seed: 203}},
		{"combined", ssi.Behavior{DropRate: 0.1, DuplicateRate: 0.1, ForgeRate: 0.1, Seed: 204}},
	}
	parts := makeParts(12, 5, testDomain, 41)
	for _, r := range runners {
		baseline, _, err := r.run(t, parts, ssi.HonestButCurious, ssi.Behavior{}, config{workers: 1})
		if err != nil {
			t.Fatalf("%s baseline: %v", r.name, err)
		}
		for _, bh := range behaviors {
			for _, workers := range []int{1, 8} {
				for _, topo := range batteryTopologies() {
					for _, fp := range []struct {
						name string
						plan *netsim.FaultPlan
					}{
						{"clean-wire", nil},
						{"faulty-wire", &netsim.FaultPlan{Seed: 105, Default: netsim.FaultSpec{Drop: 0.1, Duplicate: 0.1}}},
					} {
						name := fmt.Sprintf("%s/%s/w%d/%s/%s", r.name, bh.name, workers, topo, fp.name)
						t.Run(name, func(t *testing.T) {
							cfg := config{workers: workers, faults: fp.plan, maxRetries: 25, topology: topo}
							got, _, err := r.run(t, parts, ssi.WeaklyMalicious, bh.b, cfg)
							switch {
							case err == nil:
								if got != baseline {
									t.Fatalf("undetected misbehaviour changed the result\n got %s\nwant %s", got, baseline)
								}
							case errors.Is(err, ErrDetected):
								var de *DetectionError
								if !errors.As(err, &de) {
									t.Fatalf("detection error is not typed: %v", err)
								}
								if de.Protocol == "" || de.Reason == "" {
									t.Fatalf("detection error lacks detail: %+v", de)
								}
							default:
								t.Fatalf("unexpected error class: %v", err)
							}
						})
					}
				}
			}
		}
	}
}

// TestPropertyForgeryYieldsMACDetection: a forging SSI is always caught by
// the MAC layer, and the abort carries the typed evidence.
func TestPropertyForgeryYieldsMACDetection(t *testing.T) {
	propertyForgeryYieldsMACDetection(t, simWire)
}

func propertyForgeryYieldsMACDetection(t *testing.T, mk mkWire) {
	parts := makeParts(10, 4, testDomain, 51)
	for _, r := range batteryRunners(t, mk) {
		for _, fp := range []*netsim.FaultPlan{nil, {Seed: 106, Default: netsim.FaultSpec{Drop: 0.1}}} {
			cfg := config{workers: 4, faults: fp, maxRetries: 25}
			_, stats, err := r.run(t, parts, ssi.WeaklyMalicious, ssi.Behavior{ForgeRate: 1, Seed: 205}, cfg)
			if !errors.Is(err, ErrDetected) {
				t.Fatalf("%s: total forgery not detected: %v", r.name, err)
			}
			var de *DetectionError
			if !errors.As(err, &de) {
				t.Fatalf("%s: detection not typed: %v", r.name, err)
			}
			if de.Reason != "mac-failure" || de.MACFailures == 0 || stats.MACFailures != de.MACFailures {
				t.Errorf("%s: detection detail wrong: %+v (stats MACFailures=%d)", r.name, de, stats.MACFailures)
			}
		}
	}
}

// TestPropertyRetryCostSurfaced: degraded-mode runs report their
// retransmission cost in RunStats.
func TestPropertyRetryCostSurfaced(t *testing.T) {
	propertyRetryCostSurfaced(t, simWire)
}

func propertyRetryCostSurfaced(t *testing.T, mk mkWire) {
	parts := makeParts(12, 5, testDomain, 61)
	kr := mustKeyring(t)
	w := mk(t)
	srv := ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
	plan := &netsim.FaultPlan{Seed: 107, Default: netsim.FaultSpec{Drop: 0.2}}
	_, stats, err := runSecureAgg(w, srv, parts, kr, 7, config{workers: 1, faults: plan, maxRetries: 25})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retransmits == 0 || stats.AckMessages == 0 || stats.RetryBackoff == 0 {
		t.Errorf("20%% drop left no reliability footprint: %+v", stats)
	}
}

// TestPropertyRunRestoresFaultPlane: a faulted run arms the network's
// fault plane for its own duration only — the pre-run plane (here: none)
// is restored on every exit path, so later traffic on the same Network
// does not inherit a stale fault schedule.
func TestPropertyRunRestoresFaultPlane(t *testing.T) {
	propertyRunRestoresFaultPlane(t, simWire)
}

func propertyRunRestoresFaultPlane(t *testing.T, mk mkWire) {
	parts := makeParts(8, 3, testDomain, 71)
	kr := mustKeyring(t)
	plan := &netsim.FaultPlan{Seed: 108, Default: netsim.FaultSpec{Drop: 0.2, Duplicate: 0.1}}

	w := mk(t)
	srv := ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
	if _, _, err := runSecureAgg(w, srv, parts, kr, 7, config{workers: 2, faults: plan, maxRetries: 25}); err != nil {
		t.Fatal(err)
	}
	if w.Faults() != nil {
		t.Error("secure-agg run left its fault plane armed")
	}

	// The error path must restore the plane too.
	w = mk(t)
	srv = ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
	dead := &netsim.FaultPlan{Seed: 109, Default: netsim.FaultSpec{Drop: 1}}
	if _, _, err := runSecureAgg(w, srv, parts, kr, 7, config{workers: 1, faults: dead, maxRetries: 2}); err == nil {
		t.Fatal("drop=1 run unexpectedly succeeded")
	}
	if w.Faults() != nil {
		t.Error("failed run left its fault plane armed")
	}

	delivered := 0
	w.Deliver(netsim.Envelope{Kind: "k", Payload: []byte("x")}, func(netsim.Envelope) { delivered++ })
	if delivered != 1 {
		t.Errorf("post-run delivery saw %d copies, want 1 (clean wire)", delivered)
	}
}

// TestPropertyShardFailureDetected: a sharded SSI behaves exactly like a
// single server while healthy, and a crashed shard — whose tuples simply
// vanish — always surfaces as a typed DetectionError, never a silently
// partial result. Exercised across topologies and both batch protocols
// that accept arbitrary Infra routing.
func TestPropertyShardFailureDetected(t *testing.T) {
	propertyShardFailureDetected(t, simWire)
}

func propertyShardFailureDetected(t *testing.T, mk mkWire) {
	parts := makeParts(24, 3, testDomain, 81)
	kr := mustKeyring(t)
	want := PlainResult(parts)
	for _, topo := range batteryTopologies() {
		// Healthy shard fleet: exact result.
		w := mk(t)
		ss, err := ssi.NewShardSet(w, 3, ssi.HonestButCurious, ssi.Behavior{})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := runSecureAgg(w, ss, parts, kr, 5, config{workers: 2, topology: topo})
		if err != nil {
			t.Fatalf("%v healthy shards: %v", topo, err)
		}
		if !resultsEqual(res, want) {
			t.Fatalf("%v healthy shards: result diverges from ground truth", topo)
		}

		// One shard crashes mid-collection: detection, not a wrong answer.
		w = mk(t)
		ss, err = ssi.NewShardSet(w, 3, ssi.HonestButCurious, ssi.Behavior{})
		if err != nil {
			t.Fatal(err)
		}
		half := parts[:len(parts)/2]
		rest := parts[len(parts)/2:]
		crashed := &crashMidCollect{ShardSet: ss, after: len(half)}
		_, _, err = runSecureAgg(w, crashed, append(append([]Participant(nil), half...), rest...), kr, 5,
			config{workers: 2, topology: topo})
		var de *DetectionError
		if !errors.As(err, &de) {
			t.Fatalf("%v crashed shard: expected DetectionError, got %v", topo, err)
		}
		if de.Reason != "checksum-mismatch" {
			t.Fatalf("%v crashed shard: reason = %q, want checksum-mismatch", topo, de.Reason)
		}
	}
}

// crashMidCollect fails shard 0 after a fixed number of uploads,
// modelling a node dying partway through the collection phase.
type crashMidCollect struct {
	*ssi.ShardSet
	after int
	seen  int
}

func (c *crashMidCollect) Receive(e netsim.Envelope) {
	c.seen++
	if c.seen == c.after {
		c.ShardSet.Fail(0)
	}
	c.ShardSet.Receive(e)
}

// TestDetectionErrorContract pins the typed-error API.
func TestDetectionErrorContract(t *testing.T) {
	de := detectionError("secure-agg", RunStats{MACFailures: 3})
	if de.Reason != "mac-failure" || de.MACFailures != 3 {
		t.Errorf("mac detection detail = %+v", de)
	}
	if !errors.Is(de, ErrDetected) {
		t.Error("DetectionError does not match ErrDetected")
	}
	if !strings.Contains(de.Error(), "secure-agg") {
		t.Errorf("Error() lacks protocol: %q", de.Error())
	}
	if d2 := detectionError("noise", RunStats{}); d2.Reason != "checksum-mismatch" {
		t.Errorf("checksum detection detail = %+v", d2)
	}
}
