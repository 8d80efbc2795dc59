package anon

import (
	"errors"
	"fmt"
	"testing"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/ssi"
)

// contributorsOf deals the dataset's records round-robin to n PDSs.
func contributorsOf(ds Dataset, n int) []Contributor {
	cs := make([]Contributor, n)
	for i := range cs {
		cs[i].ID = fmt.Sprintf("pds-%d", i)
	}
	for i, r := range ds.Records {
		c := &cs[i%n]
		c.Records = append(c.Records, r)
	}
	return cs
}

func testKeyring(t *testing.T) *gquery.Keyring {
	t.Helper()
	kr, err := gquery.KeyringFrom(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

func TestPublishViaTokens(t *testing.T) {
	ds := censusDataset(200, 6)
	contributors := contributorsOf(ds, 20)
	net := netsim.New()
	srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
	a, stats, err := PublishViaTokens(gquery.New(), net, srv, testKeyring(t), contributors, ds.QINames, ds.Hierarchies, Params{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyKAnonymous(a.Records, 5) {
		t.Error("published table not 5-anonymous")
	}
	if stats.Records != 200 {
		t.Errorf("collected %d records", stats.Records)
	}
	// One chunk gathers everything at one token: one upload frame per
	// contributor, one dispatch frame, one partial, one message per
	// published record.
	if stats.Chunks != 1 || stats.Net.Messages != int64(20+1+1+len(a.Records)) {
		t.Errorf("%d chunks, %d messages; want 1 chunk, %d messages", stats.Chunks, stats.Net.Messages, 20+2+len(a.Records))
	}
	// The SSI saw only ciphertexts: all payloads distinct, no grouping.
	o := srv.Observations()
	if o.DistinctPayloads != o.Envelopes || len(o.GroupFrequencies) != 0 {
		t.Error("payload collisions suggest deterministic leakage")
	}
	// The table is the one the enclave computes from the plain records.
	want, err := Anonymize(ds, Params{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := publishedShape(a); got != publishedShape(want) {
		t.Errorf("published %s, want %s", got, publishedShape(want))
	}
}

// A sharded SSI cuts one chunk per shard; the tokens' merge gives the
// same table.
func TestPublishViaTokensSharded(t *testing.T) {
	ds := censusDataset(120, 9)
	net := netsim.New()
	ss, err := ssi.NewShardSet(net, 3, ssi.HonestButCurious, ssi.Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	a, stats, err := PublishViaTokens(gquery.New(), net, ss, testKeyring(t), contributorsOf(ds, 12), ds.QINames, ds.Hierarchies, Params{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Anonymize(ds, Params{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != 3 || publishedShape(a) != publishedShape(want) {
		t.Errorf("%d chunks, published %s; want 3 chunks, %s", stats.Chunks, publishedShape(a), publishedShape(want))
	}
}

func TestPublishDetectsTampering(t *testing.T) {
	ds := censusDataset(100, 7)
	contributors := []Contributor{{ID: "pds-0", Records: ds.Records}}
	net := netsim.New()
	srv := ssi.New(net, ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.2, Seed: 8})
	_, stats, err := PublishViaTokens(gquery.New(), net, srv, testKeyring(t), contributors, ds.QINames, ds.Hierarchies, Params{K: 5})
	var de *gquery.DetectionError
	if !errors.As(err, &de) || !stats.Detected {
		t.Errorf("tampering not detected: err=%v", err)
	}
}

func TestRecordEncodeDecode(t *testing.T) {
	r := Record{QI: []string{"37", "75013"}, Sensitive: "flu"}
	got, err := decodeRecord(encodeRecord(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensitive != "flu" || len(got.QI) != 2 || got.QI[1] != "75013" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decodeRecord([]byte{1}); err == nil {
		t.Error("short record accepted")
	}
}

// publishedShape is what a publication is judged by: the generalization
// levels, the information loss, the classes and the suppressed count.
func publishedShape(a *Anonymized) string {
	return fmt.Sprintf("levels=%v loss=%.6f classes=%d suppressed=%d sizes=%v",
		a.Levels, a.InfoLoss, a.Classes, a.Suppressed, ClassSizes(a.Records))
}

// TestPropertyPublishNeverWrong is the property battery for PPDP: under
// clean and faulty wires, an honest or weakly-malicious SSI and one or
// eight workers, a publication is the clean run's table or a typed abort
// (gquery.ErrDetected or netsim.ErrRetriesExhausted) — never a silently
// different table. An honest SSI must always publish.
func TestPropertyPublishNeverWrong(t *testing.T) {
	ds := censusDataset(90, 11)
	ds.Records = append(ds.Records, ds.Records[:10]...) // duplicate records travel as counts
	contributors := contributorsOf(ds, 9)
	kr := testKeyring(t)
	p := Params{K: 3, MaxSuppression: 0.05}
	clean, err := Anonymize(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	want := publishedShape(clean)
	plans := []struct {
		name string
		plan *netsim.FaultPlan
	}{
		{"clean", nil},
		{"drop20", &netsim.FaultPlan{Seed: 101, Default: netsim.FaultSpec{Drop: 0.2}}},
		{"dup20", &netsim.FaultPlan{Seed: 102, Default: netsim.FaultSpec{Duplicate: 0.2}}},
		{"mixed", &netsim.FaultPlan{Seed: 103, Default: netsim.FaultSpec{Drop: 0.1, Duplicate: 0.1, Delay: 0.05, Reorder: 0.05}}},
	}
	behaviors := []struct {
		name string
		mode ssi.Mode
		b    ssi.Behavior
	}{
		{"honest", ssi.HonestButCurious, ssi.Behavior{}},
		{"drop", ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.2, Seed: 201}},
		{"dup", ssi.WeaklyMalicious, ssi.Behavior{DuplicateRate: 0.25, Seed: 202}},
		{"forge", ssi.WeaklyMalicious, ssi.Behavior{ForgeRate: 0.3, Seed: 203}},
	}
	for _, pl := range plans {
		for _, bh := range behaviors {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", pl.name, bh.name, workers), func(t *testing.T) {
					opts := []gquery.Option{gquery.WithWorkers(workers)}
					if pl.plan != nil {
						opts = append(opts, gquery.WithFaults(pl.plan), gquery.WithRetries(25))
					}
					net := netsim.New()
					srv := ssi.New(net, bh.mode, bh.b)
					a, _, err := PublishViaTokens(gquery.New(opts...), net, srv, kr, contributors, ds.QINames, ds.Hierarchies, p)
					switch {
					case err == nil:
						if got := publishedShape(a); got != want {
							t.Fatalf("published %s, want %s", got, want)
						}
						if bh.name == "forge" {
							t.Fatal("forging SSI went undetected")
						}
					case bh.name == "honest":
						t.Fatalf("honest SSI aborted: %v", err)
					case errors.Is(err, gquery.ErrDetected), errors.Is(err, netsim.ErrRetriesExhausted):
						t.Logf("typed abort: %v", err)
					default:
						t.Fatalf("untyped abort: %v", err)
					}
				})
			}
		}
	}
}
