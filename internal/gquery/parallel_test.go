package gquery

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
)

// statsMatch compares run stats ignoring the critical-path report: the
// span tree of a parallel run legitimately differs from the serial one
// (that difference IS the parallel slack), while every cost and
// detection counter must still agree exactly.
func statsMatch(a, b RunStats) bool {
	a.CriticalPath = obs.CriticalPath{}
	b.CriticalPath = obs.CriticalPath{}
	return reflect.DeepEqual(a, b)
}

// runBoth executes the same secure-agg inputs serially and over the full
// token fleet, on fresh network/SSI instances with identical adversary
// behavior, and returns both outcomes.
func runBoth(t *testing.T, mode ssi.Mode, b ssi.Behavior, parts []Participant, chunkSize int) (serRes, parRes Result, serStats, parStats RunStats, serErr, parErr error) {
	t.Helper()
	kr := mustKeyring(t)
	net1, srv1 := freshRun(t, mode, b)
	serRes, serStats, serErr = runSecureAgg(net1, srv1, parts, kr, chunkSize, config{workers: 1})
	net2, srv2 := freshRun(t, mode, b)
	parRes, parStats, parErr = runSecureAgg(net2, srv2, parts, kr, chunkSize, config{workers: 8})
	return
}

func TestSecureAggParallelMatchesSerial(t *testing.T) {
	parts := makeParts(25, 6, testDomain, 11)
	serRes, parRes, serStats, parStats, serErr, parErr := runBoth(t, ssi.HonestButCurious, ssi.Behavior{}, parts, 7)
	if serErr != nil || parErr != nil {
		t.Fatalf("errs: serial=%v parallel=%v", serErr, parErr)
	}
	if !resultsEqual(serRes, parRes) {
		t.Errorf("parallel result diverges\nserial   %v\nparallel %v", serRes, parRes)
	}
	if !statsMatch(serStats, parStats) {
		t.Errorf("parallel stats diverge\nserial   %+v\nparallel %+v", serStats, parStats)
	}
	if !resultsEqual(parRes, PlainResult(parts)) {
		t.Error("parallel result != ground truth")
	}
}

func TestSecureAggParallelDetectsDrop(t *testing.T) {
	parts := makeParts(15, 5, testDomain, 12)
	b := ssi.Behavior{DropRate: 0.2, Seed: 13}
	_, _, serStats, parStats, serErr, parErr := runBoth(t, ssi.WeaklyMalicious, b, parts, 8)
	if !errors.Is(serErr, ErrDetected) || !errors.Is(parErr, ErrDetected) {
		t.Fatalf("drop not detected: serial=%v parallel=%v", serErr, parErr)
	}
	if !statsMatch(serStats, parStats) {
		t.Errorf("detection stats diverge\nserial   %+v\nparallel %+v", serStats, parStats)
	}
}

func TestSecureAggParallelDetectsDuplicate(t *testing.T) {
	parts := makeParts(15, 5, testDomain, 14)
	b := ssi.Behavior{DuplicateRate: 0.3, Seed: 15}
	_, _, serStats, parStats, serErr, parErr := runBoth(t, ssi.WeaklyMalicious, b, parts, 8)
	if !errors.Is(serErr, ErrDetected) || !errors.Is(parErr, ErrDetected) {
		t.Fatalf("duplicate not detected: serial=%v parallel=%v", serErr, parErr)
	}
	if !statsMatch(serStats, parStats) {
		t.Errorf("detection stats diverge\nserial   %+v\nparallel %+v", serStats, parStats)
	}
}

func TestSecureAggParallelDetectsForgery(t *testing.T) {
	parts := makeParts(15, 5, testDomain, 16)
	b := ssi.Behavior{ForgeRate: 0.3, Seed: 17}
	_, _, serStats, parStats, serErr, parErr := runBoth(t, ssi.WeaklyMalicious, b, parts, 8)
	if !errors.Is(serErr, ErrDetected) || !errors.Is(parErr, ErrDetected) {
		t.Fatalf("forgery not detected: serial=%v parallel=%v", serErr, parErr)
	}
	if serStats.MACFailures == 0 || !statsMatch(serStats, parStats) {
		t.Errorf("MAC failure stats diverge\nserial   %+v\nparallel %+v", serStats, parStats)
	}
}

func TestNoiseParallelMatchesSerial(t *testing.T) {
	parts := makeParts(20, 5, testDomain, 18)
	kr := mustKeyring(t)
	for _, kind := range []NoiseKind{NoNoise, WhiteNoise, ControlledNoise} {
		net1, srv1 := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		serRes, serStats, err := runNoise(net1, srv1, parts, kr, testDomain, 1, kind, 19, config{workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		net2, srv2 := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		parRes, parStats, err := runNoise(net2, srv2, parts, kr, testDomain, 1, kind, 19, config{workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(serRes, parRes) {
			t.Errorf("%v: parallel noise result diverges", kind)
		}
		if !statsMatch(serStats, parStats) {
			t.Errorf("%v: parallel noise stats diverge\nserial   %+v\nparallel %+v", kind, serStats, parStats)
		}
	}
}

func TestHistogramParallelMatchesSerial(t *testing.T) {
	parts := makeParts(20, 5, testDomain, 20)
	kr := mustKeyring(t)
	buckets, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	net1, srv1 := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	serRes, serStats, err := runHistogram(net1, srv1, parts, kr, buckets, config{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	net2, srv2 := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	parRes, parStats, err := runHistogram(net2, srv2, parts, kr, buckets, config{workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serRes) != len(parRes) {
		t.Fatalf("bucket counts diverge: %d vs %d", len(serRes), len(parRes))
	}
	for bkt, agg := range serRes {
		if parRes[bkt] != agg {
			t.Errorf("bucket %d diverges: serial %+v parallel %+v", bkt, agg, parRes[bkt])
		}
	}
	if !statsMatch(serStats, parStats) {
		t.Errorf("parallel histogram stats diverge\nserial   %+v\nparallel %+v", serStats, parStats)
	}
}

func TestHistogramParallelDetectsDrop(t *testing.T) {
	parts := makeParts(15, 5, testDomain, 21)
	kr := mustKeyring(t)
	buckets, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, srv := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.3, Seed: 22})
	_, stats, err := runHistogram(net, srv, parts, kr, buckets, config{workers: 8})
	if !errors.Is(err, ErrDetected) || !stats.Detected {
		t.Errorf("parallel histogram missed drop: err=%v stats=%+v", err, stats)
	}
}

func TestWorkerResolution(t *testing.T) {
	if got := (config{workers: 1}).fleet(100); got != 1 {
		t.Errorf("serial workers = %d, want 1", got)
	}
	if got := (config{workers: 8}).fleet(3); got != 3 {
		t.Errorf("workers capped by items = %d, want 3", got)
	}
	if got := (config{workers: -1}).fleet(0); got != 1 {
		t.Errorf("degenerate workers = %d, want 1", got)
	}
	if got := (config{}).fleet(1 << 20); got < 1 {
		t.Errorf("every-core workers = %d, want >= 1", got)
	}
}

// TestEngineSurface pins what New's options resolve to: the default is
// the serial, clean, flat engine; WithWorkers(0) is every core; options
// apply in order, each touching only its own field.
func TestEngineSurface(t *testing.T) {
	reg := obs.NewRegistry()
	plan := &netsim.FaultPlan{Seed: 1}
	for _, tc := range []struct {
		name string
		opts []Option
		want config
	}{
		{"default", nil, config{workers: 1}},
		{"every-core", []Option{WithWorkers(0)}, config{}},
		{"later-overrides-earlier", []Option{WithWorkers(8), WithTopology(Tree(4)), WithWorkers(2), WithTopology(Flat())},
			config{workers: 2}},
		{"observer-first", []Option{WithObserver(reg), WithWorkers(0), WithFaults(plan), WithRetries(25), WithTopology(Tree(4))},
			config{faults: plan, maxRetries: 25, topology: Tree(4), observer: reg}},
		{"observer-last", []Option{WithTopology(Tree(4)), WithRetries(25), WithFaults(plan), WithWorkers(0), WithObserver(reg)},
			config{faults: plan, maxRetries: 25, topology: Tree(4), observer: reg}},
	} {
		if got := New(tc.opts...).cfg; got != tc.want {
			t.Errorf("%s: New resolved to %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if got, want := New(WithWorkers(0)).cfg.fleet(math.MaxInt), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("WithWorkers(0) fleet = %d, want GOMAXPROCS = %d", got, want)
	}
}
