package tenant_test

import (
	"testing"

	"pds/internal/obs"
	"pds/internal/race"
	"pds/internal/tenant"
)

// A request to a resident tenant keeps its audit entry and the pages it
// programs, and on a sync boundary its commit record and what a
// reorganization's external sort holds per run. Averaged over the sync
// and reorganization cadence of each engine that is 8 (kv), 13 (search:
// every twelfth request sorts the postings indexed since the last
// reorganization and merges them into the compact index) and 6 (embdb)
// allocations; it was 60, 1105 and 40 while series names, hash
// pre-images, sort records and decoded triples were built per request,
// and search's was 32 while every reorganization re-sorted the whole
// index.
func TestResidentDoAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	for class, ceiling := range map[tenant.Class]float64{
		tenant.ClassKV:     12,
		tenant.ClassSearch: 16,
		tenant.ClassEmbDB:  10,
	} {
		h := tenant.NewHost(tenant.HostConfig{}, obs.NewRegistry())
		at := int64(0)
		do := func() {
			at += 50_000_000 // spaced out: every request is admitted at once
			resp, err := h.Do(serveReq("resident", class, at))
			if err != nil || resp.Decision != tenant.DecisionAdmit {
				t.Fatalf("%v request at %d: %+v, %v", class, at, resp, err)
			}
		}
		for i := 0; i < 60; i++ { // past provisioning, the first syncs, the first reorganization
			do()
		}
		got := testing.AllocsPerRun(180, do)
		t.Logf("%v: %.1f allocs per resident request", class, got)
		if got > ceiling {
			t.Errorf("%v: %.1f allocs per resident request, ceiling %.0f", class, got, ceiling)
		}
		if bad := h.Guard("resident").VerifyChain(); bad >= 0 {
			t.Fatalf("%v: audit chain broken at %d", class, bad)
		}
	}
}

// The host binds its series handles at the first event of each series,
// not in NewHost: a series enters the registry, every window sample and
// the running window digest only once its event has happened. Digests
// captured at the parent of the bound handles, and re-captured when
// search reorganization stopped re-sorting the whole index: the cheaper
// reorganizations moved the virtual clock, so fewer requests queue and
// none is shed. The decision counts are pinned with them.
func TestServeDigestsGolden(t *testing.T) {
	rep, err := tenant.Serve(tenant.ServeConfig{Tenants: 300, Arrivals: 3000, Seed: 5}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	const (
		window   = "db0d2647d4d2d453e4843d717070d75dfa574287b59615ba1e759e2785bb7d4a"
		decision = "5c2f2b8693e830d6a7303924926c34c52e722c06951a0829cd3f6c4cf0a6ed7a"
	)
	type counts struct{ admitted, queued, shed, denied, quota, evictions, reopens int }
	got := counts{rep.Admitted, rep.Queued, rep.Shed, rep.Denied, rep.Quota, int(rep.Evictions), int(rep.Reopens)}
	if want := (counts{2939, 2, 0, 59, 0, 340, 205}); got != want {
		t.Errorf("decision counts = %+v, want %+v", got, want)
	}
	if rep.WindowDigest != window || rep.WindowSamples != 6 {
		t.Errorf("window digest = %s over %d samples, want %s over 6", rep.WindowDigest, rep.WindowSamples, window)
	}
	if rep.DecisionDigest != decision {
		t.Errorf("decision digest = %s, want %s", rep.DecisionDigest, decision)
	}
}
