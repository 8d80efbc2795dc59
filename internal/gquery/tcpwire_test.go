package gquery

import (
	"errors"
	"testing"
	"time"

	"pds/internal/netsim"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// The TCP axis of the property battery: the identical protocol matrix of
// property_test.go replayed over the real length-prefixed TCP substrate.
// One switch and one querier endpoint are shared by every run of a test —
// exactly how a long-lived querier process uses the wire — so the battery
// also exercises sequential fault/observer epochs on one connection.

// tcpWire dials a loopback switch once; every run of the test reuses the
// connection.
func tcpWire(t *testing.T) mkWire {
	t.Helper()
	sw, err := tnet.NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tnet.Dial(sw.Addr(), "querier")
	if err != nil {
		sw.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Err(); err != nil {
			t.Errorf("tcp wire error: %v", err)
		}
		c.Close()
		sw.Close()
	})
	return func(testing.TB) tnet.Transport { return c }
}

func TestPropertyFaultToleranceExactOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix over TCP skipped in -short mode (netsim axis still runs)")
	}
	propertyFaultToleranceExact(t, tcpWire(t))
}

func TestPropertyMaliciousNeverWrongOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix over TCP skipped in -short mode (netsim axis still runs)")
	}
	propertyMaliciousNeverWrong(t, tcpWire(t))
}

func TestPropertyForgeryYieldsMACDetectionOverTCP(t *testing.T) {
	propertyForgeryYieldsMACDetection(t, tcpWire(t))
}

func TestPropertyRetryCostSurfacedOverTCP(t *testing.T) {
	propertyRetryCostSurfaced(t, tcpWire(t))
}

func TestPropertyRunRestoresFaultPlaneOverTCP(t *testing.T) {
	propertyRunRestoresFaultPlane(t, tcpWire(t))
}

func TestPropertyShardFailureDetectedOverTCP(t *testing.T) {
	propertyShardFailureDetected(t, tcpWire(t))
}

// TestTCPSeededParityWithNetsim pins the two substrates to each other:
// the same seed over the simulator and over the TCP wire must produce the
// exact same aggregate, the same scalar run statistics, and the same
// typed DetectionError under the same seeded SSI misbehaviour. This is
// the cross-substrate determinism the echo-back contract buys.
func TestTCPSeededParityWithNetsim(t *testing.T) {
	parts := makeParts(16, 6, testDomain, 33)
	kr := mustKeyring(t)
	tcp := tcpWire(t)

	// protoStats is the protocol-shape surface of a run: invariant across
	// substrates AND across repeat runs, because it depends only on the
	// participant data, not on the per-run encryption IVs. The wire-cost
	// side (messages, retransmits, backoff) is run-invariant only on a
	// clean wire — under a fault plan the seeded decisions hash the
	// randomized ciphertexts, so two runs differ even on one substrate;
	// byte-level cross-substrate identity for fixed payloads is pinned by
	// the transport conformance battery instead.
	type protoStats struct {
		chunks, workerCalls, fakeTuples int
		detected                        bool
		treeDepth, treeNodes            int
	}
	type wireCost struct {
		net                                   netsim.Stats
		retransmits, ackMessages, tagFailures int
		macFailures                           int
		retryBackoff                          time.Duration
		criticalNS                            int64 // the per-node clock is substrate-independent too
	}
	type outcome struct {
		fp    string
		proto protoStats
		cost  wireCost
		err   error
	}
	run := func(w tnet.Transport, mode ssi.Mode, b ssi.Behavior, cfg config) outcome {
		srv := ssi.New(w, mode, b)
		res, s, err := runSecureAgg(w, srv, SliceSource(parts), kr, 7, cfg)
		return outcome{
			fp: fpResult(res),
			proto: protoStats{
				chunks: s.Chunks, workerCalls: s.WorkerCalls, fakeTuples: s.FakeTuples,
				detected: s.Detected, treeDepth: s.TreeDepth, treeNodes: s.TreeNodes,
			},
			cost: wireCost{
				net: s.Net, retransmits: s.Retransmits, ackMessages: s.AckMessages,
				tagFailures: s.TagFailures, macFailures: s.MACFailures, retryBackoff: s.RetryBackoff,
				criticalNS: s.CriticalPath.TotalNS,
			},
			err: err,
		}
	}

	faulty := &netsim.FaultPlan{Seed: 77, Default: netsim.FaultSpec{Drop: 0.15, Duplicate: 0.1, Delay: 0.1, Reorder: 0.05}}
	cases := []struct {
		name string
		mode ssi.Mode
		b    ssi.Behavior
		cfg  config
	}{
		{"honest-clean-serial", ssi.HonestButCurious, ssi.Behavior{}, config{workers: 1}},
		{"honest-faulty-serial", ssi.HonestButCurious, ssi.Behavior{}, config{workers: 1, faults: faulty, maxRetries: 25}},
		{"honest-faulty-tree", ssi.HonestButCurious, ssi.Behavior{}, config{workers: 1, faults: faulty, maxRetries: 25, topology: Tree(4)}},
		{"malicious-drop", ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.2, Seed: 201}, config{workers: 1, faults: faulty, maxRetries: 25}},
		{"malicious-forge", ssi.WeaklyMalicious, ssi.Behavior{ForgeRate: 1, Seed: 205}, config{workers: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := run(netsim.New(), tc.mode, tc.b, tc.cfg)
			wire := run(tcp(t), tc.mode, tc.b, tc.cfg)

			switch {
			case sim.err == nil && wire.err == nil:
				if sim.fp != wire.fp {
					t.Fatalf("aggregate diverges across substrates\n netsim %s\n tcp    %s", sim.fp, wire.fp)
				}
			case sim.err != nil && wire.err != nil:
				var de1, de2 *DetectionError
				if !errors.As(sim.err, &de1) || !errors.As(wire.err, &de2) {
					t.Fatalf("error classes diverge: netsim %v, tcp %v", sim.err, wire.err)
				}
				if de1.Reason != de2.Reason || de1.Protocol != de2.Protocol || de1.MACFailures != de2.MACFailures {
					t.Fatalf("detection detail diverges: netsim %+v, tcp %+v", de1, de2)
				}
			default:
				t.Fatalf("outcome diverges: netsim err=%v, tcp err=%v", sim.err, wire.err)
			}
			if sim.proto != wire.proto {
				t.Errorf("protocol shape diverges across substrates\n netsim %+v\n tcp    %+v", sim.proto, wire.proto)
			}
			// Wire cost is exactly comparable only without a fault plan
			// (see protoStats comment).
			if tc.cfg.faults == nil && sim.cost != wire.cost {
				t.Errorf("clean-wire cost diverges across substrates\n netsim %+v\n tcp    %+v", sim.cost, wire.cost)
			}
		})
	}

	// Parallel workers: nondeterministic interleaving, but the aggregate
	// is still exact and substrate-independent.
	simPar := run(netsim.New(), ssi.HonestButCurious, ssi.Behavior{}, config{workers: 4, faults: faulty, maxRetries: 25})
	wirePar := run(tcp(t), ssi.HonestButCurious, ssi.Behavior{}, config{workers: 4, faults: faulty, maxRetries: 25})
	if simPar.err != nil || wirePar.err != nil {
		t.Fatalf("parallel runs failed: netsim %v, tcp %v", simPar.err, wirePar.err)
	}
	if simPar.fp != wirePar.fp {
		t.Fatalf("parallel aggregate diverges\n netsim %s\n tcp    %s", simPar.fp, wirePar.fp)
	}
}
