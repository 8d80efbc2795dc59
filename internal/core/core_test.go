package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pds/internal/acl"
	"pds/internal/embdb"
	"pds/internal/gquery"
	"pds/internal/mcu"
	"pds/internal/ssi"
)

func newTestPDS(t testing.TB, id string, key []byte) *PDS {
	t.Helper()
	p, err := New(id, Config{Profile: mcu.TestProfileLarge(), MasterKey: key, SearchBuckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestNewDefaults(t *testing.T) {
	p, err := New("alice", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Device.Profile.Name != "smartcard" {
		t.Errorf("default profile = %s", p.Device.Profile.Name)
	}
	if len(p.masterKey) != 32 {
		t.Errorf("master key len = %d", len(p.masterKey))
	}
}

func TestSearchPolicyEnforced(t *testing.T) {
	p := newTestPDS(t, "alice", make([]byte, 32))
	p.AddDocument(map[string]int{"asthma": 2, "inhaler": 1})
	p.AddDocument(map[string]int{"holiday": 3})

	// No rule yet: denied.
	if _, err := p.SearchAs("dr-bob", "doctor", "care", []string{"asthma"}, 5); !errors.Is(err, ErrDenied) {
		t.Errorf("unruled search err = %v", err)
	}
	p.Guard.Policy.Add(acl.Rule{Role: "doctor", Collection: "docs", Action: acl.ActionP(acl.Read), Purpose: "care", Allow: true})
	res, err := p.SearchAs("dr-bob", "doctor", "care", []string{"asthma"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("results = %v", res)
	}
	// Wrong purpose still denied.
	if _, err := p.SearchAs("dr-bob", "doctor", "marketing", []string{"asthma"}, 5); !errors.Is(err, ErrDenied) {
		t.Errorf("marketing search err = %v", err)
	}
	// Every attempt is in the audit chain.
	if got := p.Guard.Audit.Len(); got != 3 {
		t.Errorf("audit entries = %d, want 3", got)
	}
	if acl.Verify(p.Guard.Audit.Entries()) != -1 {
		t.Error("audit chain broken")
	}
}

func loadHealthTable(t testing.TB, p *PDS, n int, seed int64) {
	t.Helper()
	if _, err := p.DB.CreateTable("health", embdb.NewSchema(
		embdb.Column{Name: "diagnosis", Type: embdb.Str},
		embdb.Column{Name: "cost", Type: embdb.Int},
	)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	diags := []string{"flu", "asthma", "healthy"}
	for i := 0; i < n; i++ {
		if _, err := p.DB.Insert("health", embdb.Row{
			embdb.StrVal(diags[rng.Intn(len(diags))]),
			embdb.IntVal(rng.Int63n(100)),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestContributeRequiresSharePermission(t *testing.T) {
	p := newTestPDS(t, "alice", make([]byte, 32))
	loadHealthTable(t, p, 5, 1)
	if _, err := p.Contribute("agency", "statistics", "health", "diagnosis", "cost"); !errors.Is(err, ErrDenied) {
		t.Errorf("unruled contribute err = %v", err)
	}
	p.Guard.Policy.Add(acl.Rule{Collection: "db/health", Action: acl.ActionP(acl.Share), Purpose: "statistics", Allow: true})
	tuples, err := p.Contribute("agency", "statistics", "health", "diagnosis", "cost")
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 5 {
		t.Errorf("tuples = %d", len(tuples))
	}
	if _, err := p.Contribute("agency", "statistics", "health", "nope", "cost"); err == nil {
		t.Error("bad column accepted")
	}
}

func buildDirectory(t testing.TB, n int) (*Directory, []gquery.Participant) {
	t.Helper()
	key := make([]byte, 32)
	dir := &Directory{}
	var want []gquery.Participant
	for i := 0; i < n; i++ {
		p := newTestPDS(t, fmt.Sprintf("pds-%03d", i), key)
		loadHealthTable(t, p, 4, int64(i+10))
		p.Guard.Policy.Add(acl.Rule{Collection: "db/health", Action: acl.ActionP(acl.Share), Purpose: "statistics", Allow: true})
		dir.Add(p)
		tuples, err := p.Contribute("agency", "statistics", "health", "diagnosis", "cost")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, gquery.Participant{ID: p.ID, Tuples: tuples})
	}
	return dir, want
}

func TestDirectoryRunAllProtocols(t *testing.T) {
	dir, want := buildDirectory(t, 12)
	truth := gquery.PlainResult(want)
	domain := []string{"asthma", "flu", "healthy"}

	for _, proto := range []Protocol{SecureAgg, NoiseWhite, NoiseControlled} {
		res, err := dir.Run(GlobalQuery{
			Requester: "agency", Purpose: "statistics",
			Table: "health", GroupCol: "diagnosis", ValueCol: "cost",
			Protocol: proto, Domain: domain, NoisePerTuple: 1, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.Participants != 12 || res.Denied != 0 {
			t.Errorf("%v: participants=%d denied=%d", proto, res.Participants, res.Denied)
		}
		for g, a := range truth {
			if res.Result[g] != a {
				t.Errorf("%v: group %s = %+v, want %+v", proto, g, res.Result[g], a)
			}
		}
	}

	// Homomorphic: SUM and COUNT exact, MIN/MAX structurally absent.
	resH, err := dir.Run(GlobalQuery{
		Requester: "agency", Purpose: "statistics",
		Table: "health", GroupCol: "diagnosis", ValueCol: "cost",
		Protocol: HomomorphicAgg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, a := range truth {
		got := resH.Result[g]
		if got.Sum != a.Sum || got.Count != a.Count {
			t.Errorf("homomorphic %s: %d/%d, want %d/%d", g, got.Sum, got.Count, a.Sum, a.Count)
		}
	}

	// Histogram: totals preserved, per-group approximate.
	res, err := dir.Run(GlobalQuery{
		Requester: "agency", Purpose: "statistics",
		Table: "health", GroupCol: "diagnosis", ValueCol: "cost",
		Protocol: Histogram, Domain: domain, Buckets: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.TotalCount() != truth.TotalCount() {
		t.Errorf("histogram total = %d, want %d", res.Result.TotalCount(), truth.TotalCount())
	}
}

func TestDirectoryRespectsDenials(t *testing.T) {
	dir, _ := buildDirectory(t, 6)
	// Half the members revoke sharing.
	for i, p := range dir.Members() {
		if i%2 == 0 {
			p.Guard.Policy.Add(acl.Rule{Collection: "db/health", Action: acl.ActionP(acl.Share), Allow: false})
		}
	}
	res, err := dir.Run(GlobalQuery{
		Requester: "agency", Purpose: "statistics",
		Table: "health", GroupCol: "diagnosis", ValueCol: "cost",
		Protocol: SecureAgg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Participants != 3 || res.Denied != 3 {
		t.Errorf("participants=%d denied=%d, want 3/3", res.Participants, res.Denied)
	}
}

func TestDirectoryDetectsMaliciousSSI(t *testing.T) {
	dir, _ := buildDirectory(t, 8)
	res, err := dir.Run(GlobalQuery{
		Requester: "agency", Purpose: "statistics",
		Table: "health", GroupCol: "diagnosis", ValueCol: "cost",
		Protocol: SecureAgg,
		SSIMode:  ssi.WeaklyMalicious, SSIBehavior: ssi.Behavior{DropRate: 0.3, Seed: 4},
	})
	if !errors.Is(err, gquery.ErrDetected) {
		t.Errorf("malicious SSI err = %v", err)
	}
	if res == nil || !res.Stats.Detected {
		t.Error("detection flag not set")
	}
}

func TestEmptyDirectory(t *testing.T) {
	dir := &Directory{}
	if _, err := dir.Run(GlobalQuery{Protocol: SecureAgg}); err == nil {
		t.Error("empty directory accepted")
	}
}

func TestAllRefuse(t *testing.T) {
	dir, _ := buildDirectory(t, 3)
	for _, p := range dir.Members() {
		p.Guard.Policy.Add(acl.Rule{Action: acl.ActionP(acl.Share), Allow: false})
	}
	if _, err := dir.Run(GlobalQuery{
		Requester: "agency", Purpose: "statistics",
		Table: "health", GroupCol: "diagnosis", ValueCol: "cost",
		Protocol: SecureAgg,
	}); !errors.Is(err, ErrDenied) {
		t.Errorf("all-refuse err = %v", err)
	}
}

func TestQueryAsPolicy(t *testing.T) {
	p := newTestPDS(t, "alice", make([]byte, 32))
	if _, err := p.DB.CreateTable("T", embdb.NewSchema(embdb.Column{Name: "v", Type: embdb.Int})); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DB.CreateJoinIndex("T"); err != nil {
		t.Fatal(err)
	}
	p.DB.Insert("T", embdb.Row{embdb.IntVal(7)})
	q := embdb.StarQuery{Root: "T", Project: []embdb.ColRef{{Table: "T", Col: "v"}}}
	if _, err := p.QueryAs("guest", "", "", q); !errors.Is(err, ErrDenied) {
		t.Errorf("unruled query err = %v", err)
	}
	p.Guard.Policy.Add(acl.Rule{Collection: "db/T", Action: acl.ActionP(acl.Read), Allow: true})
	rows, err := p.QueryAs("guest", "", "", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != embdb.IntVal(7) {
		t.Errorf("rows = %v", rows)
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{
		SecureAgg: "secure-agg", NoiseWhite: "noise-white",
		NoiseControlled: "noise-controlled", Histogram: "histogram",
		HomomorphicAgg: "homomorphic-agg",
		Protocol(9):    "Protocol(9)",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}
