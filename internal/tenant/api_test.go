package tenant_test

import (
	"errors"
	"sync"
	"testing"

	"pds/internal/acl"
	"pds/internal/obs"
	"pds/internal/tenant"
)

func serveReq(name string, class tenant.Class, at int64) tenant.Request {
	return tenant.Request{Tenant: name, Class: class, AtNS: at, Role: "owner", Purpose: "serve"}
}

// The typed refusal surface: wrong purpose → ErrDenied (audited), wrong
// subject → ErrDenied, footprint at quota → ErrQuota, queue full →
// ErrShed. Each refusal is one decision byte and one metered counter.
func TestTypedRefusals(t *testing.T) {
	reg := obs.NewRegistry()
	h := tenant.NewHost(tenant.HostConfig{PageQuota: 24, Slots: 1, QueueDepth: 1}, reg)

	// Denied: forbidden purpose.
	resp, err := h.Do(tenant.Request{Tenant: "t0", Class: tenant.ClassKV, AtNS: 1, Role: "owner", Purpose: "marketing"})
	if !errors.Is(err, tenant.ErrDenied) || resp.Decision != tenant.DecisionDenied {
		t.Fatalf("marketing purpose: %v / %+v", err, resp)
	}
	// Denied: a stranger's subject.
	resp, err = h.Do(tenant.Request{Tenant: "t0", Class: tenant.ClassKV, AtNS: 2, Subject: "mallory", Role: "owner", Purpose: "serve"})
	if !errors.Is(err, tenant.ErrDenied) || resp.Decision != tenant.DecisionDenied {
		t.Fatalf("foreign subject: %v / %+v", err, resp)
	}

	// Quota: an append-only table grows monotonically; hammer one tenant
	// until its footprint crosses the ceiling.
	at := int64(10)
	var quotaErr error
	for i := 0; i < 400; i++ {
		at += 100_000_000 // spaced out: no queueing in this phase
		if _, err := h.Do(serveReq("q0", tenant.ClassEmbDB, at)); err != nil {
			quotaErr = err
			break
		}
	}
	if !errors.Is(quotaErr, tenant.ErrQuota) {
		t.Fatalf("quota never tripped: %v", quotaErr)
	}
	// And it stays tripped: the envelope survives, the store is refused.
	at += 100_000_000
	resp, err = h.Do(serveReq("q0", tenant.ClassEmbDB, at))
	if !errors.Is(err, tenant.ErrQuota) || resp.Decision != tenant.DecisionQuota || resp.Pages < 24 {
		t.Fatalf("quota not sticky: %v / %+v", err, resp)
	}

	// Shed: one slot, queue depth one, three simultaneous arrivals on a
	// fresh tenant — admit, queue, shed.
	at += 100_000_000
	r1, err1 := h.Do(serveReq("t1", tenant.ClassSearch, at))
	r2, err2 := h.Do(serveReq("t2", tenant.ClassSearch, at))
	r3, err3 := h.Do(serveReq("t3", tenant.ClassSearch, at))
	if err1 != nil || r1.Decision != tenant.DecisionAdmit {
		t.Fatalf("first arrival: %v / %+v", err1, r1)
	}
	if err2 != nil || r2.Decision != tenant.DecisionQueued || r2.QueueNS <= 0 {
		t.Fatalf("second arrival: %v / %+v", err2, r2)
	}
	if !errors.Is(err3, tenant.ErrShed) || r3.Decision != tenant.DecisionShed {
		t.Fatalf("third arrival: %v / %+v", err3, r3)
	}

	// Every decision above was metered and recorded.
	want := map[string]int64{"denied": 2, "quota": 2, "shed": 1}
	for d, n := range want {
		if got := reg.CounterValue(tenant.MetricRequests, "decision", d); got < n {
			t.Fatalf("decision %s metered %d times, want >= %d", d, got, n)
		}
	}
	if h.Digest() == tenant.NewHost(tenant.HostConfig{}, nil).Digest() {
		t.Fatal("decision stream empty")
	}
}

// A queued request's virtual span starts when its slot frees, and the
// slot chain advances: two same-instant arrivals serialize.
func TestQueueingChains(t *testing.T) {
	h := tenant.NewHost(tenant.HostConfig{Slots: 1, QueueDepth: 8}, nil)
	r1, err := h.Do(serveReq("a", tenant.ClassEmbDB, 1000))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Do(serveReq("b", tenant.ClassEmbDB, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StartNS != r1.EndNS {
		t.Fatalf("queued start %d, want the first request's end %d", r2.StartNS, r1.EndNS)
	}
	if r2.LatencyNS != r2.QueueNS+r2.ServiceNS {
		t.Fatalf("latency %d != queue %d + service %d", r2.LatencyNS, r2.QueueNS, r2.ServiceNS)
	}
	// Classes are isolated: a kv arrival at the same instant admits
	// immediately despite the embdb backlog.
	r3, err := h.Do(serveReq("c", tenant.ClassKV, 1000))
	if err != nil || r3.Decision != tenant.DecisionAdmit {
		t.Fatalf("cross-class isolation broken: %v / %+v", err, r3)
	}
}

// Evict-to-flash under RAM pressure: a tiny arena holds two residents;
// touching a third evicts the least recently used, and touching the
// victim again reopens it with its operation counter intact (no errors,
// footprint preserved).
func TestEvictReopenUnderPressure(t *testing.T) {
	reg := obs.NewRegistry()
	h := tenant.NewHost(tenant.HostConfig{ArenaBytes: 4 << 10}, reg)
	names := []string{"t0", "t1", "t2"}
	at := int64(0)
	pages := map[string]int{}
	for round := 0; round < 6; round++ {
		for _, n := range names {
			at += 50_000_000
			resp, err := h.Do(serveReq(n, tenant.ClassKV, at))
			if err != nil {
				t.Fatalf("round %d tenant %s: %v", round, n, err)
			}
			if resp.Pages < pages[n] {
				t.Fatalf("tenant %s footprint shrank across evict/reopen: %d -> %d", n, pages[n], resp.Pages)
			}
			pages[n] = resp.Pages
		}
	}
	if reg.CounterValue(tenant.MetricEvictions) == 0 || reg.CounterValue(tenant.MetricReopens) == 0 {
		t.Fatalf("no churn: evictions=%d reopens=%d",
			reg.CounterValue(tenant.MetricEvictions), reg.CounterValue(tenant.MetricReopens))
	}
	if got := reg.GaugeValue(tenant.MetricResident); got > 2 {
		t.Fatalf("%d residents in a 2-slot arena", got)
	}
	if hw := h.Arena().HighWater(); hw > 4<<10 {
		t.Fatalf("arena high-water %d over budget", hw)
	}
	// Each tenant's audit chain must verify end to end.
	for _, n := range names {
		g := h.Guard(n)
		if g == nil {
			t.Fatalf("tenant %s has no guard", n)
		}
		if bad := g.VerifyChain(); bad >= 0 {
			t.Fatalf("tenant %s audit chain broken at %d", n, bad)
		}
	}
}

// A tenant's class is fixed at provisioning; re-addressing it under
// another class is a hosting fault, not a policy refusal.
func TestClassMismatch(t *testing.T) {
	h := tenant.NewHost(tenant.HostConfig{}, nil)
	if _, err := h.Do(serveReq("t0", tenant.ClassKV, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := h.Do(serveReq("t0", tenant.ClassSearch, 2))
	if err == nil || errors.Is(err, tenant.ErrDenied) || errors.Is(err, tenant.ErrShed) || errors.Is(err, tenant.ErrQuota) {
		t.Fatalf("class mismatch: %v", err)
	}
}

// Concurrent guard decisions from many tenants must be race-free: the
// host serializes requests, but guards (policy reads, audit appends,
// obs mirroring) are shared with transports and verifiers. Run with
// -race (`make race` does).
func TestGuardConcurrencyHammer(t *testing.T) {
	reg := obs.NewRegistry()
	h := tenant.NewHost(tenant.HostConfig{}, reg)
	names := make([]string, 16)
	at := int64(0)
	for i := range names {
		names[i] = string(rune('a' + i))
		at += 1_000_000
		if _, err := h.Do(serveReq(names[i], tenant.ClassOf(i), at)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := names[(w+i)%len(names)]
				g := h.Guard(name)
				q := acl.Request{Subject: name, Role: "owner", Collection: "store/kv", Action: acl.Write, Purpose: "serve"}
				if i%3 == 0 {
					q.Purpose = "marketing"
				}
				allowed := g.Check(q)
				if q.Purpose == "marketing" && allowed {
					t.Error("marketing allowed")
					return
				}
				if i%50 == 0 {
					g.VerifyChain()
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range names {
		if bad := h.Guard(n).VerifyChain(); bad >= 0 {
			t.Fatalf("tenant %s audit chain broken at %d after hammer", n, bad)
		}
	}
}
