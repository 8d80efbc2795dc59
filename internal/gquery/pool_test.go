package gquery

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
)

// pooledQuery is one query of the shared-pool test: a protocol over a
// clean or a lossy wire, with a WithObserver registry of its own.
type pooledQuery struct {
	proto string
	lossy bool
	seed  int64
}

type pooledOutcome struct {
	res   any
	stats RunStats
	reg   *obs.Registry
}

func runPooledQuery(t *testing.T, q pooledQuery, parts []Participant, kr *Keyring, buckets []Bucket) pooledOutcome {
	reg := obs.NewRegistry()
	opts := []Option{WithObserver(reg)}
	if q.lossy {
		opts = append(opts, WithFaults(&netsim.FaultPlan{Seed: q.seed, Default: netsim.FaultSpec{Drop: 0.08, Duplicate: 0.08, Delay: 0.04, Reorder: 0.04}}))
	}
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	eng := New(opts...)
	var out pooledOutcome
	var err error
	switch q.proto {
	case "secure-agg":
		out.res, out.stats, err = eng.SecureAgg(net, srv, parts, kr, 16)
	case "noise":
		out.res, out.stats, err = eng.Noise(net, srv, parts, kr, testDomain, 1, ControlledNoise, q.seed)
	default:
		out.res, out.stats, err = eng.Histogram(net, srv, parts, kr, buckets)
	}
	if err != nil {
		t.Errorf("%+v: %v", q, err)
	}
	out.reg = reg
	return out
}

// Concurrent runs share the run-registry and link pools without sharing
// what they hold: four goroutines run clean and lossy queries of every
// protocol at once, and each matches its serial twin — the whole RunStats
// on a clean wire. A lossy run's wire cost does not repeat (its frames
// carry fresh nonces and its tracer's id, and the fault draws hash the
// frames), so there it matches the twin's answer and protocol counts, and
// its own registry's record of the run. The race detector (make race)
// checks the recycling itself.
func TestConcurrentRunsShareThePools(t *testing.T) {
	parts := makeParts(40, 3, testDomain, 17)
	kr := mustKeyring(t)
	buckets, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	var queries []pooledQuery
	for i := 0; i < 12; i++ {
		queries = append(queries, pooledQuery{proto: []string{"secure-agg", "noise", "histogram"}[i%3], lossy: i%2 == 1, seed: int64(i)})
	}
	twins := make([]pooledOutcome, len(queries))
	for i, q := range queries {
		twins[i] = runPooledQuery(t, q, parts, kr, buckets)
	}

	const goroutines = 4
	got := make([][]pooledOutcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range queries {
				q := queries[(j+g)%len(queries)]
				got[g] = append(got[g], runPooledQuery(t, q, parts, kr, buckets))
			}
		}(g)
	}
	wg.Wait()

	for g := range got {
		for j, out := range got[g] {
			i := (j + g) % len(queries)
			q, twin := queries[i], twins[i]
			name := fmt.Sprintf("goroutine %d, %+v", g, q)
			if !reflect.DeepEqual(out.res, twin.res) {
				t.Errorf("%s: result %v, serial twin %v", name, out.res, twin.res)
			}
			if !q.lossy {
				if !reflect.DeepEqual(out.stats, twin.stats) {
					t.Errorf("%s: RunStats\n %+v\nserial twin\n %+v", name, out.stats, twin.stats)
				}
				continue
			}
			st, tw := out.stats, twin.stats
			if st.Chunks != tw.Chunks || st.WorkerCalls != tw.WorkerCalls || st.FakeTuples != tw.FakeTuples || st.Detected != tw.Detected {
				t.Errorf("%s: protocol counts %+v, serial twin %+v", name, st, tw)
			}
			reg := out.reg
			if st.Net.Messages != reg.CounterValue(netsim.MetricMessages) ||
				st.Net.Bytes != reg.CounterValue(netsim.MetricBytes) ||
				int64(st.Retransmits) != reg.CounterValue(netsim.MetricRelRetrans) ||
				int64(st.AckMessages) != reg.CounterValue(netsim.MetricRelAcks) ||
				st.CriticalPath.TotalNS != reg.CounterValue(MetricCriticalNS) {
				t.Errorf("%s: RunStats %+v disagree with the run's own registry", name, st)
			}
		}
	}
}

// What a caller keeps of a run is its own: the RunStats, its critical
// path and the WithObserver registry read the same after later runs have
// taken the run's registry and links from the pools.
func TestRunResultsOutliveThePools(t *testing.T) {
	parts := makeParts(30, 3, testDomain, 5)
	kr := mustKeyring(t)
	q := pooledQuery{proto: "secure-agg", lossy: true, seed: 3}
	first := runPooledQuery(t, q, parts, kr, nil)
	stats := first.stats
	phases := append([]obs.PhasePath(nil), stats.CriticalPath.Phases...)
	snap, err := first.reg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	spans := first.reg.Tracer().Spans()
	for i := 0; i < 6; i++ {
		runPooledQuery(t, pooledQuery{proto: []string{"secure-agg", "noise", "histogram"}[i%3], lossy: true, seed: int64(10 + i)}, parts, kr, mustBuckets(t))
	}
	if !reflect.DeepEqual(first.stats, stats) || !reflect.DeepEqual(stats.CriticalPath.Phases, phases) {
		t.Errorf("RunStats changed under later runs")
	}
	again, err := first.reg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(snap) {
		t.Errorf("the WithObserver registry changed under later runs")
	}
	if !reflect.DeepEqual(first.reg.Tracer().Spans(), spans) {
		t.Errorf("the WithObserver registry's spans changed under later runs")
	}
}

func mustBuckets(t *testing.T) []Bucket {
	t.Helper()
	b, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
