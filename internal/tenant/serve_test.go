package tenant_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pds/internal/obs"
	"pds/internal/tenant"
)

// The hosting headline: a thousand tenants on one daemon, aggregate
// resident RAM pinned under the arena budget by LRU eviction, every
// request guarded, and per-class SLOs readable off the registry.
func TestServeThousandTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("full-density serve run")
	}
	reg := obs.NewRegistry()
	cfg := tenant.ServeConfig{Tenants: 1000, Arrivals: 6000, Seed: 42}
	rep, err := tenant.Serve(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants != 1000 || rep.Arrivals != 6000 {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.Admitted+rep.Queued+rep.Shed+rep.Denied+rep.Quota != rep.Arrivals {
		t.Fatalf("decisions don't partition arrivals: %+v", rep)
	}
	if rep.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if rep.Denied == 0 {
		t.Fatal("deny-purpose arrivals were not refused")
	}
	// Density forces churn: far fewer resident slots than tenants.
	if rep.Evictions == 0 || rep.Reopens == 0 {
		t.Fatalf("no churn at 1000-tenant density: evictions=%d reopens=%d", rep.Evictions, rep.Reopens)
	}
	if rep.RAMHighWater > rep.RAMBudget {
		t.Fatalf("resident RAM %d exceeded arena budget %d", rep.RAMHighWater, rep.RAMBudget)
	}
	if rep.RAMHighWater == 0 {
		t.Fatal("high-water never moved")
	}
	// Zero unguarded paths: every arrival crossed an acl.Guard.
	if rep.ACLDecisions != int64(rep.Arrivals) {
		t.Fatalf("acl decisions %d != arrivals %d — some path skipped the guard", rep.ACLDecisions, rep.Arrivals)
	}
	for _, slo := range rep.Classes {
		if slo.Requests == 0 {
			t.Fatalf("class %s served nothing", slo.Class)
		}
		if slo.P50NS <= 0 || slo.P99NS < slo.P50NS || slo.P999NS < slo.P99NS {
			t.Fatalf("class %s percentiles not monotone: %+v", slo.Class, slo)
		}
	}
	t.Logf("report: admitted=%d queued=%d shed=%d denied=%d quota=%d evict=%d reopen=%d ram=%d/%d",
		rep.Admitted, rep.Queued, rep.Shed, rep.Denied, rep.Quota,
		rep.Evictions, rep.Reopens, rep.RAMHighWater, rep.RAMBudget)
	for _, slo := range rep.Classes {
		t.Logf("  %s: n=%d p50=%dns p99=%dns p999=%dns", slo.Class, slo.Requests, slo.P50NS, slo.P99NS, slo.P999NS)
	}
}

// Two serve runs with the same seed must produce identical decision
// streams, digests and reports — the property `make ci` pins.
func TestServeDeterministic(t *testing.T) {
	cfg := tenant.ServeConfig{Tenants: 120, Arrivals: 1500, Seed: 7, RatePerSec: 4000}
	r1, err := tenant.Serve(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tenant.Serve(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DecisionDigest != r2.DecisionDigest {
		t.Fatalf("decision digests diverge:\n  %s\n  %s", r1.DecisionDigest, r2.DecisionDigest)
	}
	if r1.Admitted != r2.Admitted || r1.Queued != r2.Queued || r1.Shed != r2.Shed ||
		r1.Denied != r2.Denied || r1.Quota != r2.Quota || r1.DurationNS != r2.DurationNS ||
		r1.Evictions != r2.Evictions || r1.Reopens != r2.Reopens ||
		r1.RAMHighWater != r2.RAMHighWater || r1.MaxQueueDepth != r2.MaxQueueDepth {
		t.Fatalf("reports diverge:\n  %+v\n  %+v", r1, r2)
	}
	for i := range r1.Classes {
		if r1.Classes[i] != r2.Classes[i] {
			t.Fatalf("class SLOs diverge: %+v vs %+v", r1.Classes[i], r2.Classes[i])
		}
	}
	// A different seed must actually change the stream (the digest is
	// not a constant).
	cfg.Seed = 8
	r3, err := tenant.Serve(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r3.DecisionDigest == r1.DecisionDigest {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// The host-level twin of the determinism test: drive two hosts by hand
// with the same requests and compare the decisions they answered, and
// the digest against the SHA-256 of those bytes.
func TestHostDecisionStreamDeterministic(t *testing.T) {
	run := func() []byte {
		var stream []byte
		h := tenant.NewHost(tenant.HostConfig{ArenaBytes: 16 << 10}, nil)
		at := int64(0)
		for i := 0; i < 400; i++ {
			at += 150_000
			purpose := "serve"
			if i%17 == 0 {
				purpose = "marketing"
			}
			name := []string{"alpha", "beta", "gamma", "delta"}[i%4]
			resp, _ := h.Do(tenant.Request{
				Tenant: name, Class: tenant.ClassOf(i % 4), AtNS: at,
				Role: "owner", Purpose: purpose,
			})
			stream = append(stream, byte(resp.Decision))
		}
		if sum := sha256.Sum256(stream); h.Digest() != hex.EncodeToString(sum[:]) {
			t.Fatalf("digest %s is not the SHA-256 of the %d decisions answered", h.Digest(), len(stream))
		}
		return stream
	}
	if d1, d2 := run(), run(); !bytes.Equal(d1, d2) {
		t.Fatalf("decision streams diverge:\n  %q\n  %q", d1, d2)
	}
}
