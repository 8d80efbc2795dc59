package tenant

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pds/internal/obs"
)

// scanVictim is evictOne's victim selection as it stood before the
// resident index: a scan over every envelope in creation order for the
// smallest lastUsed among the resident ones, the first created winning
// ties.
func scanVictim(h *Host, keep *envelope) *envelope {
	var victim *envelope
	for _, e := range h.order {
		if e == keep || e.res == nil {
			continue
		}
		if victim == nil || e.lastUsed < victim.lastUsed {
			victim = e
		}
	}
	return victim
}

// tieSchedule is 300 tenants over an arena that holds twelve. A third of
// the arrivals share their predecessor's instant, so resident tenants tie
// on lastUsed and creation order decides who goes.
func tieSchedule(n int) []Request {
	rng := rand.New(rand.NewSource(13))
	reqs := make([]Request, n)
	at := int64(0)
	for i := range reqs {
		if rng.Intn(3) > 0 {
			at += int64(rng.Intn(400_000))
		}
		tn := rng.Intn(300)
		purpose := "serve"
		if rng.Intn(50) == 0 {
			purpose = "marketing"
		}
		reqs[i] = Request{Tenant: fmt.Sprintf("t%03d", tn), Class: ClassOf(tn), AtNS: at, Role: "owner", Purpose: purpose}
	}
	return reqs
}

// The resident index names the victim the scan names, in every state an
// eviction can start from, and the run decides every request as it did
// when the scan chose (digest and counters captured at the parent of the
// index).
func TestEvictionIndexMatchesScan(t *testing.T) {
	h := NewHost(HostConfig{ArenaBytes: 24 << 10}, obs.NewRegistry())
	ties := 0
	for i, r := range tieSchedule(5000) {
		if _, err := h.Do(r); err != nil && !errors.Is(err, ErrDenied) && !errors.Is(err, ErrShed) && !errors.Is(err, ErrQuota) {
			t.Fatalf("request %d: %v", i, err)
		}
		want := scanVictim(h, nil)
		if len(h.lru) == 0 {
			if want != nil {
				t.Fatalf("request %d: index is empty, scan evicts %s", i, want.name)
			}
			continue
		}
		if got := h.lru[0]; got != want {
			t.Fatalf("request %d: index evicts %s (lastUsed %d), scan evicts %s (lastUsed %d)",
				i, got.name, got.lastUsed, want.name, want.lastUsed)
		}
		for _, e := range h.lru[1:] {
			if e.lastUsed == want.lastUsed {
				ties++
				break
			}
		}
		resident := 0
		for _, e := range h.order {
			if e.res != nil {
				resident++
			}
		}
		if resident != h.Resident() {
			t.Fatalf("request %d: Resident() = %d, %d envelopes hold a reservation", i, h.Resident(), resident)
		}
	}
	if ties < 100 {
		t.Errorf("only %d states tied on lastUsed: the schedule does not exercise the tie rule", ties)
	}
	const digest = "fadc5a672c7e2f4a539f85469c6eb1b7ebb297cee46e137e741035076e2890d1"
	if got := h.Digest(); got != digest {
		t.Errorf("decision digest = %s, want %s", got, digest)
	}
	if ev, re := h.reg.CounterValue(MetricEvictions), h.reg.CounterValue(MetricReopens); ev != 4668 || re != 4380 || h.Resident() != 12 {
		t.Errorf("evictions %d, reopens %d, resident %d; want 4668, 4380, 12", ev, re, h.Resident())
	}
}
