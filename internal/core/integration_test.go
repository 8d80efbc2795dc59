package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pds/internal/acl"
	"pds/internal/anon"
	"pds/internal/embdb"
	"pds/internal/folder"
	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/ssi"
	"pds/internal/workload"
)

// TestEndToEndScenario walks the tutorial's whole story in one test:
// personal data lives on tokens under policies; a care network syncs a
// medical folder offline; a statistics agency runs every global protocol
// over the population and publishes a k-anonymous table; a malicious
// infrastructure is caught. Each stage checks its invariants.
func TestEndToEndScenario(t *testing.T) {
	const nPDS = 16
	key := make([]byte, 32)
	dir := &Directory{}
	rng := rand.New(rand.NewSource(99))

	// Stage 1: provision a population of PDSs with local data.
	for i := 0; i < nPDS; i++ {
		p := newTestPDS(t, fmt.Sprintf("citizen-%02d", i), key)
		if _, err := p.DB.CreateTable("health", embdb.NewSchema(
			embdb.Column{Name: "diagnosis", Type: embdb.Str},
			embdb.Column{Name: "cost", Type: embdb.Int},
		)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.DB.CreateIndex("health", "diagnosis"); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			d := workload.Diagnoses[rng.Intn(len(workload.Diagnoses))]
			if _, err := p.DB.Insert("health", embdb.Row{
				embdb.StrVal(d), embdb.IntVal(rng.Int63n(400)),
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := p.AddDocument(map[string]int{d: 1, "visit": 1}); err != nil {
				t.Fatal(err)
			}
		}
		p.Guard.Policy.Add(acl.Rule{
			Collection: "db/health", Action: acl.ActionP(acl.Share),
			Purpose: "statistics", Allow: true,
		})
		dir.Add(p)
	}

	// Stage 2: local queries respect the per-PDS flash/RAM discipline.
	p0 := dir.Members()[0]
	if s := p0.Device.Chip.Stats(); s.BlockErases != 0 {
		t.Errorf("normal operation caused %d erases", s.BlockErases)
	}
	ix, err := p0.DB.Index("health", "diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	rids, _, err := ix.Lookup(embdb.StrVal("flu"))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := mustTable(t, p0, "health").ScanFilter("diagnosis", embdb.StrVal("flu"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(scan) {
		t.Errorf("index %d vs scan %d matches", len(rids), len(scan))
	}
	// Local aggregate equals the contribution the PDS would share.
	aggs, err := p0.DB.Aggregate(embdb.AggQuery{Table: "health", Func: embdb.Sum, Col: "cost", GroupBy: "diagnosis"})
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := p0.Contribute("agency", "statistics", "health", "diagnosis", "cost")
	if err != nil {
		t.Fatal(err)
	}
	local := gquery.PlainResult([]gquery.Participant{{ID: p0.ID, Tuples: tuples}})
	for _, a := range aggs {
		g := string(a.Group.(embdb.StrVal))
		if float64(local[g].Sum) != a.Value {
			t.Errorf("local agg %s = %v, contribution sum %d", g, a.Value, local[g].Sum)
		}
	}

	// Stage 3: the global protocols agree with each other and the truth.
	parts, _ := dir.CollectParticipants("agency", "statistics", "health", "diagnosis", "cost")
	truth := gquery.PlainResult(parts)
	for _, proto := range []Protocol{SecureAgg, NoiseWhite, NoiseControlled} {
		res, err := dir.Run(GlobalQuery{
			Requester: "agency", Purpose: "statistics",
			Table: "health", GroupCol: "diagnosis", ValueCol: "cost",
			Protocol: proto, Domain: workload.Diagnoses, NoisePerTuple: 1, Seed: 5,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		for g, a := range truth {
			if res.Result[g] != a {
				t.Errorf("%v: %s = %+v, want %+v", proto, g, res.Result[g], a)
			}
		}
		if proto == SecureAgg && len(res.SSI.GroupFrequencies) != 0 {
			t.Error("secure-agg leaked grouping keys")
		}
	}

	// Stage 4: a weakly-malicious SSI is detected; an honest rerun gives
	// the exact result.
	if _, err := dir.Run(GlobalQuery{
		Requester: "agency", Purpose: "statistics",
		Table: "health", GroupCol: "diagnosis", ValueCol: "cost",
		Protocol: SecureAgg, SSIMode: ssi.WeaklyMalicious,
		SSIBehavior: ssi.Behavior{DuplicateRate: 0.5, Seed: 6},
	}); !errors.Is(err, gquery.ErrDetected) {
		t.Errorf("malicious SSI err = %v", err)
	}

	// Stage 5: token-mediated anonymous publication of the same data.
	var contributors []anon.Contributor
	for _, part := range parts {
		c := anon.Contributor{ID: part.ID}
		for i, tu := range part.Tuples {
			c.Records = append(c.Records, anon.Record{
				QI:        []string{fmt.Sprintf("%d", 20+i*7), fmt.Sprintf("75%03d", i*13%100)},
				Sensitive: tu.Group,
			})
		}
		contributors = append(contributors, c)
	}
	net := netsim.New()
	srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
	kr, err := gquery.KeyringFrom(key)
	if err != nil {
		t.Fatal(err)
	}
	pub, _, err := anon.PublishViaTokens(gquery.New(), net, srv, kr, contributors,
		[]string{"age", "zip"},
		[]anon.Hierarchy{anon.RangeHierarchy{Base: 5, Depth: 4}, anon.PrefixHierarchy{MaxLen: 5}},
		anon.Params{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !anon.VerifyKAnonymous(pub.Records, 4) {
		t.Error("publication not 4-anonymous")
	}
	if o := srv.Observations(); o.DistinctPayloads != o.Envelopes {
		t.Error("publication leaked deterministic structure")
	}

	// Stage 6: the audit trail of every PDS is intact and complete.
	for _, p := range dir.Members() {
		entries := p.Guard.Audit.Entries()
		if acl.Verify(entries) != -1 {
			t.Errorf("%s: broken audit chain", p.ID)
		}
		if len(entries) == 0 {
			t.Errorf("%s: empty audit despite contributions", p.ID)
		}
	}
}

func mustTable(t *testing.T, p *PDS, name string) *embdb.Table {
	t.Helper()
	tbl, err := p.DB.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestFolderIntegratesWithPolicies checks the medical-folder scenario with
// policy-gated writes across a care network.
func TestFolderIntegratesWithPolicies(t *testing.T) {
	patient := newTestPDS(t, "patient", make([]byte, 32))
	patient.Guard.Policy.Add(acl.Rule{Role: "medical", Collection: "medical/*", Allow: true})

	doctor := folder.NewReplica("doctor")
	badge := folder.NewBadge("b")

	// The doctor writes through the patient's policy gate.
	req := acl.Request{Subject: "doctor", Role: "medical", Collection: "medical/rx", Action: acl.Write, Purpose: "care"}
	if !patient.Guard.Check(req) {
		t.Fatal("doctor write denied")
	}
	doctor.Put("rx-1", "medical/rx", []byte("aspirin"))
	badge.Touch(doctor)
	badge.Touch(patient.Folder)
	if docs := patient.Folder.Docs(); len(docs) != 1 || docs[0].ID != "rx-1" {
		t.Error("badge did not deliver the prescription")
	}
	// An advertiser's write is denied and audited.
	bad := acl.Request{Subject: "adnet", Role: "advertiser", Collection: "medical/rx", Action: acl.Write, Purpose: "ads"}
	if patient.Guard.Check(bad) {
		t.Error("advertiser write allowed")
	}
	entries := patient.Guard.Audit.Entries()
	if len(entries) != 2 || !entries[0].Allowed || entries[1].Allowed {
		t.Errorf("audit = %+v", entries)
	}
}

// TestSearchAndDBShareDeviceBudget verifies that the search engine and the
// database genuinely share one MCU's RAM arena.
func TestSearchAndDBShareDeviceBudget(t *testing.T) {
	p := newTestPDS(t, "alice", make([]byte, 32))
	arena := p.Device.RAM
	before := arena.Used()
	if before == 0 {
		t.Fatal("search insertion buffers should be reserved")
	}
	// A query reserves and releases on top of the standing buffers.
	p.AddDocument(map[string]int{"x": 1})
	if _, err := p.Docs.Search([]string{"x"}, 3); err != nil {
		t.Fatal(err)
	}
	if arena.Used() != before {
		t.Errorf("query leaked RAM: %d -> %d", before, arena.Used())
	}
	if arena.HighWater() <= before {
		t.Error("query never claimed working memory")
	}
}
