package scenario

import (
	"testing"
	"time"

	"pds/internal/obs"
)

// teleFleetPlan is a small sharded plan for the scrape tests: clean wire,
// three shard processes, enough uploads that every shard meters traffic.
func teleFleetPlan() Plan {
	return Plan{
		Name: "tele-fleet", Tokens: 48, TuplesEach: 3, Seed: 9,
		Shards: 3, ChunkSize: 16, Workers: 4, RestartShard: -1,
	}
}

// The fleet scrape primitive end to end: live ServeSSI nodes answer
// scn/tele with their current registry snapshot, the coordinator folds
// every shard into one registry via MergeSnapshot, and every merged
// series renders to valid exposition — the cross-subsystem half of the
// Prometheus hardening regression.
func TestFleetTelemetryScrape(t *testing.T) {
	p := teleFleetPlan()
	q, _ := startFleet(t, p)
	infra := NewRemoteInfra(q, p.Shards)
	if err := infra.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if infra.Shards() != p.Shards {
		t.Fatalf("infra fronts %d shards, want %d", infra.Shards(), p.Shards)
	}
	for i := 0; i < p.Shards; i++ {
		if !infra.Ping(i) {
			t.Fatalf("shard %d not live", i)
		}
	}

	// Scrape before any traffic: must answer with a (possibly sparse)
	// well-formed snapshot rather than erroring, and merge cleanly.
	merged := obs.NewRegistry()
	for i := 0; i < p.Shards; i++ {
		snap, err := infra.Telemetry(i)
		if err != nil {
			t.Fatalf("pre-traffic telemetry of shard %d: %v", i, err)
		}
		merged.MergeSnapshot(snap)
	}

	// Drive a full run so node registries accumulate transport metrics,
	// then fold the final shard snapshots into one registry.
	rep, err := RunQuerier(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("fleet run failed: %+v", rep)
	}
	if len(rep.SSI) != p.Shards {
		t.Fatalf("collected %d shard reports, want %d", len(rep.SSI), p.Shards)
	}
	merged = obs.NewRegistry()
	for _, sr := range rep.SSI {
		snap, err := obs.ParseSnapshot(sr.Obs)
		if err != nil {
			t.Fatalf("shard %d snapshot: %v", sr.Shard, err)
		}
		merged.MergeSnapshot(snap)
	}
	snap := merged.Snapshot()
	if len(snap.Counters) == 0 {
		t.Fatal("merged fleet snapshot has no counters")
	}
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snap.Histograms {
		names = append(names, h.Name)
	}
	for _, n := range names {
		if err := obs.ValidSeriesName(n); err != nil {
			t.Errorf("fleet-merged series invalid: %v", err)
		}
	}
	// The merged exposition must render non-empty through the hardened
	// renderer.
	if out := merged.Prometheus(); len(out) == 0 {
		t.Fatal("merged fleet exposition empty")
	}
}

// Mid-run scrapes must see counters move: scrape a shard before any
// traffic, run the plan, and compare against the final snapshot — the
// totals strictly advance.
func TestFleetTelemetryCountersAdvance(t *testing.T) {
	p, ok := ByName("clean-64")
	if !ok {
		t.Fatal("clean plan missing from the registry")
	}
	q, _ := startFleet(t, p)
	infra := NewRemoteInfra(q, p.Shards)
	if err := infra.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	before, err := infra.Telemetry(0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunQuerier(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("run failed: %+v", rep)
	}
	final, err := obs.ParseSnapshot(rep.SSI[0].Obs)
	if err != nil {
		t.Fatal(err)
	}
	total := func(s obs.Snapshot) int64 {
		var n int64
		for _, c := range s.Counters {
			n += c.Value
		}
		return n
	}
	if total(final) <= total(before) {
		t.Fatalf("counters did not advance: before %d, final %d", total(before), total(final))
	}
}
