package gquery

import (
	"errors"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/privcrypto"
	"pds/internal/ssi"
)

var paillierTestKey *privcrypto.PaillierPrivateKey

func testPaillierKey(t testing.TB) *privcrypto.PaillierPrivateKey {
	t.Helper()
	if paillierTestKey == nil {
		k, err := privcrypto.GeneratePaillier(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		paillierTestKey = k
	}
	return paillierTestKey
}

func TestPaillierAggCorrectSumsAndCounts(t *testing.T) {
	parts := makeParts(15, 4, testDomain, 30)
	truth := PlainResult(parts)
	sk := testPaillierKey(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	res, stats, err := New().PaillierAgg(net, srv, parts, mustKeyring(t), sk.Public(), sk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(truth) {
		t.Fatalf("groups = %d, want %d", len(res), len(truth))
	}
	for g, want := range truth {
		got := res[g]
		if got.Sum != want.Sum || got.Count != want.Count {
			t.Errorf("%s: sum/count = %d/%d, want %d/%d", g, got.Sum, got.Count, want.Sum, want.Count)
		}
		// Min/Max are structurally unavailable under additive HE.
		if got.Min != 0 || got.Max != 0 {
			t.Errorf("%s: min/max should be zero, got %d/%d", g, got.Min, got.Max)
		}
	}
	if stats.WorkerCalls != 1 {
		t.Errorf("worker calls = %d, want 1 (only the final decryptor)", stats.WorkerCalls)
	}
}

func TestPaillierAggSSIComputesWithoutTokens(t *testing.T) {
	// The defining property: aggregation happens at the SSI; the only
	// token involvement is one decryption per group, so token-bound
	// messages = number of groups.
	parts := makeParts(30, 3, testDomain, 31)
	sk := testPaillierKey(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	reg := obs.NewRegistry()
	net.SetObserver(reg)
	res, _, err := New().PaillierAgg(net, srv, parts, mustKeyring(t), sk.Public(), sk)
	if err != nil {
		t.Fatal(err)
	}
	kind := func(k string) int64 { return reg.CounterValue(netsim.MetricKindMessages, "kind", k) }
	if got := kind("hom-group"); int(got) != len(res) {
		t.Errorf("token messages = %d, groups = %d", got, len(res))
	}
	if kind("chunk") != 0 || kind("group-chunk") != 0 {
		t.Error("worker chunk traffic present in homomorphic protocol")
	}
}

func TestPaillierAggLeaksFrequenciesOnly(t *testing.T) {
	parts := makeParts(20, 4, testDomain, 32)
	truth := PlainResult(parts)
	sk := testPaillierKey(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	if _, _, err := New().PaillierAgg(net, srv, parts, mustKeyring(t), sk.Public(), sk); err != nil {
		t.Fatal(err)
	}
	o := srv.Observations()
	if len(o.GroupFrequencies) != len(truth) {
		t.Errorf("observed %d group keys, truth has %d", len(o.GroupFrequencies), len(truth))
	}
	// Frequencies leak exactly (this protocol has no noise knob).
	hist := o.FrequencyHistogram()
	var want []int
	for _, a := range truth {
		want = append(want, int(a.Count))
	}
	sortDesc(want)
	for i := range hist {
		if hist[i] != want[i] {
			t.Errorf("frequency histogram leaked inexactly: %v vs %v", hist, want)
			break
		}
	}
}

func sortDesc(xs []int) {
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if xs[j] > xs[i] {
				xs[i], xs[j] = xs[j], xs[i]
			}
		}
	}
}

func TestPaillierAggDetectsDrop(t *testing.T) {
	parts := makeParts(10, 4, testDomain, 33)
	sk := testPaillierKey(t)
	net, srv := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.2, Seed: 34})
	_, stats, err := New().PaillierAgg(net, srv, parts, mustKeyring(t), sk.Public(), sk)
	if !errors.Is(err, ErrDetected) || !stats.Detected {
		t.Errorf("dropping SSI not detected: %v", err)
	}
}

func TestPaillierAggDetectsForgery(t *testing.T) {
	parts := makeParts(10, 4, testDomain, 35)
	sk := testPaillierKey(t)
	net, srv := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{ForgeRate: 0.3, Seed: 36})
	_, stats, err := New().PaillierAgg(net, srv, parts, mustKeyring(t), sk.Public(), sk)
	if !errors.Is(err, ErrDetected) {
		t.Errorf("forging SSI not detected: %v (stats %+v)", err, stats)
	}
}

func TestPaillierAggValidation(t *testing.T) {
	sk := testPaillierKey(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	kr := mustKeyring(t)
	if _, _, err := New().PaillierAgg(net, srv, nil, kr, sk.Public(), sk); !errors.Is(err, ErrNoParticipants) {
		t.Errorf("no participants err = %v", err)
	}
	if _, _, err := New().PaillierAgg(net, srv, makeParts(2, 2, testDomain, 37), kr, nil, nil); err == nil {
		t.Error("missing keys accepted")
	}
	neg := []Participant{{ID: "p", Tuples: []Tuple{{Group: "g", Value: -1}}}}
	if _, _, err := New().PaillierAgg(net, srv, neg, kr, sk.Public(), sk); err == nil {
		t.Error("negative value accepted")
	}
}
