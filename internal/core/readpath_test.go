package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"testing"

	"pds/internal/acl"
	"pds/internal/embdb"
	"pds/internal/kv"
	"pds/internal/logstore"
	"pds/internal/mcu"
	"pds/internal/search"
	"pds/internal/workload"
)

// readPathToken is a loaded smartcard token for the read-path tests: a
// reorganized document index with a chain tail, the star schema, a
// key-value store on the same chip — each with a flushed bulk and a few
// records still in the write buffers, so a query crosses both.
type readPathToken struct {
	pds *PDS
	kvs *kv.Store
}

const (
	rpVocab     = 500
	rpSuppliers = 5 // StarScaleFactor(0.0005)
	rpKeys      = 500
)

func rpKey(i int) []byte   { return []byte(fmt.Sprintf("key-%05d", i)) }
func rpValue(i int) []byte { return []byte(fmt.Sprintf("value-%05d-%032d", i, i*7919)) }

func newReadPathToken(t testing.TB) *readPathToken {
	t.Helper()
	key := sha256.Sum256([]byte("readpath-golden"))
	p, err := New("token", Config{Profile: mcu.Smartcard(), MasterKey: key[:]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	for i, doc := range workload.Documents(760, rpVocab, 8, 1) {
		switch i {
		case 600:
			err = p.Docs.Reorganize(4, 8)
		case 750:
			err = p.Docs.Flush()
		}
		if err == nil {
			_, err = p.AddDocument(doc)
		}
		if err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
	}

	scale := workload.StarScaleFactor(0.0005)
	if err := workload.BuildStar(p.DB, scale, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.DB.Flush(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		if _, err := p.DB.Insert("LINEITEM", embdb.Row{
			embdb.IntVal(rng.Int63n(int64(scale.Orders))),
			embdb.IntVal(rng.Int63n(int64(scale.PartSupps))),
			embdb.IntVal(1 + rng.Int63n(50)),
		}); err != nil {
			t.Fatal(err)
		}
	}

	kvs := kv.Open(p.Device.Alloc)
	t.Cleanup(func() { kvs.Close() })
	for i := 0; i < rpKeys; i++ {
		if err := kvs.Put(rpKey(i), rpValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kvs.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		k := rng.Intn(rpKeys)
		if err := kvs.Put(rpKey(k), rpValue(k+rpKeys)); err != nil {
			t.Fatal(err)
		}
	}

	read := acl.ActionP(acl.Read)
	p.Guard.Policy.Add(acl.Rule{Subject: "visitor", Collection: "docs", Action: read, Purpose: "test", Allow: true})
	p.Guard.Policy.Add(acl.Rule{Subject: "visitor", Collection: "db/*", Action: read, Purpose: "test", Allow: true})
	return &readPathToken{pds: p, kvs: kvs}
}

// rpOp is one query of a read-path script.
type rpOp struct {
	kind     int // 0 search, 1 get, 2 star
	keywords []string
	key      int
	query    embdb.StarQuery
}

// rpScript draws n ops in the rotation search, get, star, search, get.
// One get in sixteen asks for a key that was never put.
func rpScript(n int, seed int64) []rpOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, rpVocab-1)
	ops := make([]rpOp, n)
	for i := range ops {
		op := rpOp{kind: [5]int{0, 1, 2, 0, 1}[i%5]}
		switch op.kind {
		case 0:
			op.keywords = []string{fmt.Sprintf("term%05d", zipf.Uint64()), fmt.Sprintf("term%05d", zipf.Uint64())}
		case 1:
			op.key = rng.Intn(rpKeys + rpKeys/16)
		case 2:
			op.query = embdb.StarQuery{
				Root: "LINEITEM",
				Conds: []embdb.Cond{
					{Table: "CUSTOMER", Col: "mktsegment", Val: embdb.StrVal(workload.MktSegments[rng.Intn(len(workload.MktSegments))])},
					{Table: "SUPPLIER", Col: "name", Val: embdb.StrVal(fmt.Sprintf("SUPPLIER-%d", rng.Intn(rpSuppliers)))},
				},
				Project: []embdb.ColRef{
					{Table: "CUSTOMER", Col: "name"},
					{Table: "LINEITEM", Col: "qty"},
					{Table: "SUPPLIER", Col: "nation"},
					{Table: "CUSTOMER", Col: "address"},
				},
			}
		}
		ops[i] = op
	}
	return ops
}

// rpResult is what one op returned, held by the aliasing test.
type rpResult struct {
	hits  []search.Result
	value []byte
	rows  []embdb.Row
}

func (tk *readPathToken) run(op rpOp) (rpResult, error) {
	var r rpResult
	var err error
	switch op.kind {
	case 0:
		r.hits, err = tk.pds.SearchAs("visitor", "guest", "test", op.keywords, 10)
	case 1:
		r.value, _, err = tk.kvs.Get(rpKey(op.key))
		if errors.Is(err, kv.ErrNotFound) {
			r.value, err = []byte("<absent>"), nil
		}
	case 2:
		r.rows, err = tk.pds.QueryAs("visitor", "guest", "test", op.query)
	}
	return r, err
}

// fold hashes a result into h, every field length-prefixed.
func (r rpResult) fold(h io.Writer) {
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(uint64(len(r.hits)))
	for _, hit := range r.hits {
		u64(uint64(hit.Doc))
		u64(math.Float64bits(hit.Score))
	}
	str(string(r.value))
	u64(uint64(len(r.rows)))
	for _, row := range r.rows {
		for _, v := range row {
			str(v.String())
		}
	}
}

// What the paper's clock sees of a fixed 200-op script, per op kind: the
// digest of the per-op flash.Stats deltas of its searches, its gets and
// its star queries, and the digest of everything the ops returned. The
// search and get vectors and the results were captured at the parent of
// the in-place page views (ff8716a) and have not moved since; the star
// vector moved twice: when star queries began to read the Tselect trees
// and to hold one page per structure, and when they began to fetch each
// window's dimension tuples in dimension rowid order.
func TestReadPathGolden(t *testing.T) {
	wantIO := [3]string{
		"545972fde42f15a60f1540fbece457677e4f36a77c4525fa267817ddcc41b182", // 621 page reads
		"e1e5901f6594ae8a06f931a1b05f3fb092267c91c0aa6ddfbea1a39c0ca0adc9", // 211
		"d79560a0a0b962688119d3e2bf83f7e6c4b00fb98b13928cf19d6cb80f031d04", // 3194; was 22a34f48…, 5425; before that 798b22d4…, 22462
	}
	const wantResults = "a227a87af062e0282ce49a9f7a61efedb5b577e695f3869b2bf737acf4b54616"
	tk := newReadPathToken(t)
	results := sha256.New()
	ios := [3]hash.Hash{sha256.New(), sha256.New(), sha256.New()}
	idle := tk.pds.Device.RAM.Used()
	var total [3]int64
	for i, op := range rpScript(200, 1) {
		before := tk.pds.Device.Chip.Stats()
		r, err := tk.run(op)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		d := tk.pds.Device.Chip.Stats().Sub(before)
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(d.PageReads))
		binary.LittleEndian.PutUint64(b[8:], uint64(d.PageWrites))
		binary.LittleEndian.PutUint64(b[16:], uint64(d.BlockErases))
		ios[op.kind].Write(b[:])
		total[op.kind] += d.PageReads
		r.fold(results)
	}
	for kind, name := range []string{"search", "get", "star"} {
		if got := hex.EncodeToString(ios[kind].Sum(nil)); got != wantIO[kind] {
			t.Errorf("%s: per-op flash.Stats digest = %s (%d page reads), want %s", name, got, total[kind], wantIO[kind])
		}
	}
	if got := hex.EncodeToString(results.Sum(nil)); got != wantResults {
		t.Errorf("results digest = %s, want %s", got, wantResults)
	}
	if used := tk.pds.Device.RAM.Used(); used != idle {
		t.Errorf("arena holds %d bytes after the script, %d before it", used, idle)
	}
}

// Results are copied out of the pooled pages they were read in: a star
// result, a search result and a value, held across a thousand further
// queries through the same pages, must not change.
func TestResultsDoNotAliasScratch(t *testing.T) {
	tk := newReadPathToken(t)
	var held []rpResult
	var want []string
	digest := func(r rpResult) string {
		h := sha256.New()
		r.fold(h)
		return hex.EncodeToString(h.Sum(nil))
	}
	script := rpScript(1003, 5)
	for _, op := range script[:3] { // a search, a get, a star query
		r, err := tk.run(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.hits)+len(r.value)+len(r.rows) == 0 {
			t.Fatalf("op %+v returned nothing to hold", op)
		}
		held = append(held, r)
		want = append(want, digest(r))
	}
	for i, op := range script[3:] {
		if _, err := tk.run(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i, r := range held {
		if got := digest(r); got != want[i] {
			t.Errorf("held result %d changed under later queries", i)
		}
	}
}

// A star query that fails mid-stream gives its rid-list RAM back: it used
// to end the stream without Close, and QueryAs never called Next again.
func TestFailedStarQueryReleasesArena(t *testing.T) {
	p, err := New("token", Config{Profile: mcu.Smartcard(), MasterKey: make([]byte, 32)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := workload.BuildStar(p.DB, workload.StarScaleFactor(0.0001), 1); err != nil {
		t.Fatal(err)
	}
	if err := p.DB.Flush(); err != nil {
		t.Fatal(err)
	}
	p.Guard.Policy.Add(acl.Rule{Subject: "visitor", Collection: "db/*", Action: acl.ActionP(acl.Read), Purpose: "test", Allow: true})
	// No condition: every LINEITEM tuple survives, so the stream reads the
	// table's first page for its first row.
	q := embdb.StarQuery{Root: "LINEITEM", Project: []embdb.ColRef{{Table: "LINEITEM", Col: "qty"}}}
	idle := p.Device.RAM.Used()
	rows, err := p.QueryAs("visitor", "guest", "test", q)
	if err != nil || len(rows) == 0 || p.Device.RAM.Used() != idle {
		t.Fatalf("clean query: %d rows, %v, arena %d → %d", len(rows), err, idle, p.Device.RAM.Used())
	}

	// Find that page — the one whose corruption makes LINEITEM row 0
	// unreadable — and leave it corrupt.
	lineitem, err := p.DB.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	chip := p.Device.Chip
	found := false
	for n := 0; n < chip.Geometry().TotalPages() && !found; n++ {
		if ok, _ := chip.Written(n); !ok {
			continue
		}
		img, err := chip.Page(n)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), img...)
		bad[len(bad)-1] ^= 0x01
		if err := chip.CorruptPage(n, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := lineitem.Get(0); errors.Is(err, logstore.ErrCorruptPage) {
			found = true
		} else if err := chip.CorruptPage(n, img); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatal("no page of LINEITEM found on the chip")
	}

	rows, err = p.QueryAs("visitor", "guest", "test", q)
	if !errors.Is(err, logstore.ErrCorruptPage) {
		t.Fatalf("query over a corrupt LINEITEM page: %d rows, err = %v; want ErrCorruptPage", len(rows), err)
	}
	if used := p.Device.RAM.Used(); used != idle {
		t.Errorf("arena holds %d bytes after the failed query, %d before it", used, idle)
	}
}
