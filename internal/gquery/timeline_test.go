package gquery

import (
	"reflect"
	"strconv"
	"testing"
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// The per-node time model: every leg is charged to its token end, and a
// phase closes at its slowest node (DESIGN, "Part III time model").

// phaseChain returns one phase's chain from a run's critical path.
func phaseChain(s RunStats, phase string) int64 {
	for _, ph := range s.CriticalPath.Phases {
		if ph.Name == phase {
			return ph.ChainNS
		}
	}
	return -1
}

// TestFlatCollectIsSlowestPDS: on a clean wire the flat collect phase is
// the slowest single PDS's uploads, each one message of its payload
// under the default cost model, recomputed here from a wire tap.
func TestFlatCollectIsSlowestPDS(t *testing.T) {
	parts := makeParts(30, 4, testDomain, 41)
	var net *netsim.Network
	for _, r := range batteryRunners(t, func(testing.TB) tnet.Transport { return net }) {
		t.Run(r.name, func(t *testing.T) {
			net = netsim.New()
			type upload struct{ msgs, bytes int64 }
			per := map[string]upload{}
			net.Tap(func(e netsim.Envelope) {
				if e.Kind == "tuple" {
					u := per[e.From]
					u.msgs++
					u.bytes += int64(len(e.Payload))
					per[e.From] = u
				}
			})
			_, stats, err := r.run(t, parts, ssi.HonestButCurious, ssi.Behavior{}, config{workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var want time.Duration
			for _, u := range per {
				d := time.Duration(u.msgs)*20*time.Millisecond +
					time.Duration(float64(u.bytes)/(1<<20)*float64(time.Second))
				want = max(want, d)
			}
			if got := phaseChain(stats, PhaseCollect); got != int64(want) || want == 0 {
				t.Fatalf("collect chain %d ns, want the slowest PDS's %d ns", got, want)
			}
		})
	}
}

// TestLossyNeverFasterThanClean: a faulty wire only adds attempts and
// backoff to the timelines, so on the same inputs no protocol and no
// topology finishes sooner than on a clean wire.
func TestLossyNeverFasterThanClean(t *testing.T) {
	parts := makeParts(24, 4, testDomain, 43)
	plan := &netsim.FaultPlan{Seed: 111, Default: netsim.FaultSpec{Drop: 0.1, Duplicate: 0.1, Delay: 0.05, Reorder: 0.05}}
	for _, r := range batteryRunners(t, simWire) {
		for _, topo := range []Topology{Flat(), Tree(4)} {
			t.Run(r.name+"/"+topo.String(), func(t *testing.T) {
				_, clean, err := r.run(t, parts, ssi.HonestButCurious, ssi.Behavior{}, config{workers: 1, topology: topo})
				if err != nil {
					t.Fatal(err)
				}
				_, lossy, err := r.run(t, parts, ssi.HonestButCurious, ssi.Behavior{},
					config{workers: 1, topology: topo, faults: plan, maxRetries: 25})
				if err != nil {
					t.Fatal(err)
				}
				if lossy.Retransmits == 0 {
					t.Fatal("fault plan cost no retransmission — test is vacuous")
				}
				if lossy.CriticalPath.TotalNS < clean.CriticalPath.TotalNS {
					t.Fatalf("lossy critical path %d ns below clean %d ns", lossy.CriticalPath.TotalNS, clean.CriticalPath.TotalNS)
				}
			})
		}
	}
}

// TestCriticalPathInvariantToWorkers: a fleet of four tokens charges the
// same legs to the same timelines as one token — sums commute — so on a
// clean wire the total and every phase chain are equal.
func TestCriticalPathInvariantToWorkers(t *testing.T) {
	parts := makeParts(40, 3, testDomain, 45)
	for _, r := range batteryRunners(t, simWire) {
		for _, topo := range []Topology{Flat(), Tree(4)} {
			t.Run(r.name+"/"+topo.String(), func(t *testing.T) {
				chains := func(workers int) (int64, map[string]int64) {
					_, s, err := r.run(t, parts, ssi.HonestButCurious, ssi.Behavior{}, config{workers: workers, topology: topo})
					if err != nil {
						t.Fatal(err)
					}
					m := map[string]int64{}
					for _, ph := range s.CriticalPath.Phases {
						m[ph.Name] = ph.ChainNS
					}
					return s.CriticalPath.TotalNS, m
				}
				total1, phases1 := chains(1)
				total4, phases4 := chains(4)
				if total1 != total4 || !reflect.DeepEqual(phases1, phases4) {
					t.Fatalf("workers=1: %d %v\nworkers=4: %d %v", total1, phases1, total4, phases4)
				}
			})
		}
	}
}

// TestTokenFoldingSeveralChunksPaysForAll: with more chunks than
// participants one token folds several chunks, one after another. 8
// participants × 3 tuples at chunk size 1 give 24 chunks on 8 tokens, so
// the slowest token folds 3 chunks of at least two legs (dispatch,
// partial) each, flat and tree alike.
func TestTokenFoldingSeveralChunksPaysForAll(t *testing.T) {
	parts := makeParts(8, 3, testDomain, 47)
	kr := mustKeyring(t)
	floor := int64(3 * 2 * 20 * time.Millisecond)

	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	_, flat, err := New().SecureAgg(net, srv, parts, kr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Chunks != 24 {
		t.Fatalf("chunks = %d, want 24", flat.Chunks)
	}
	if got := phaseChain(flat, PhaseTokenFold); got < floor {
		t.Fatalf("flat fold chain %d ns, want >= %d ns", got, floor)
	}

	reg := obs.NewRegistry()
	net, srv = freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	if _, _, err := New(WithTopology(Tree(4)), WithObserver(reg)).SecureAgg(net, srv, parts, kr, 1); err != nil {
		t.Fatal(err)
	}
	// The leaf level ends when its busiest token has folded all three.
	for _, sp := range reg.Snapshot().Spans {
		if sp.Name == "tree-level" && sp.Attrs["level"] == strconv.Itoa(0) {
			if d := sp.EndNS - sp.StartNS; d < floor {
				t.Fatalf("tree leaf level spans %d ns, want >= %d ns", d, floor)
			}
			return
		}
	}
	t.Fatal("no leaf tree-level span")
}

// TestRunCriticalPathEqualsExportWalk: the in-place walk finish runs over
// the raw records must equal the walk over the canonical export, for
// every protocol × topology × fleet size × wire.
func TestRunCriticalPathEqualsExportWalk(t *testing.T) {
	parts := makeParts(20, 3, testDomain, 49)
	plan := &netsim.FaultPlan{Seed: 113, Default: netsim.FaultSpec{Drop: 0.1, Duplicate: 0.1, Delay: 0.05, Reorder: 0.05}}
	for _, r := range batteryRunners(t, simWire) {
		for _, topo := range []Topology{Flat(), Tree(4)} {
			for _, workers := range []int{1, 4} {
				for _, faults := range []*netsim.FaultPlan{nil, plan} {
					reg := obs.NewRegistry()
					cfg := config{workers: workers, topology: topo, faults: faults, maxRetries: 25, observer: reg}
					_, stats, err := r.run(t, parts, ssi.HonestButCurious, ssi.Behavior{}, cfg)
					if err != nil {
						t.Fatalf("%s %v w=%d faulty=%v: %v", r.name, topo, workers, faults != nil, err)
					}
					export := obs.ComputeCriticalPath(reg.Tracer().Spans())
					if !reflect.DeepEqual(stats.CriticalPath, export) || !reflect.DeepEqual(reg.Tracer().CriticalPath(), export) {
						t.Fatalf("%s %v w=%d faulty=%v: in-place %+v\nexport %+v",
							r.name, topo, workers, faults != nil, stats.CriticalPath, export)
					}
				}
			}
		}
	}
}
