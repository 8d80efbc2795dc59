package embdb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pds/internal/logstore"
	"pds/internal/mcu"
)

// buildTPCD assembles the tutorial's query schema:
//
//	LINEITEM → ORDERS → CUSTOMER
//	LINEITEM → PARTSUPP → SUPPLIER
//
// with Tjoin rooted at LINEITEM and Tselect indexes on CUSTOMER.mktsegment
// and SUPPLIER.name, mirroring the slide's example query.
func buildTPCD(t testing.TB, db *DB, customers, suppliers, orders, lineitems int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mustCreate := func(name string, s Schema) {
		if _, err := db.CreateTable(name, s); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("CUSTOMER", NewSchema(Column{"name", Str}, Column{"mktsegment", Str}))
	mustCreate("SUPPLIER", NewSchema(Column{"name", Str}, Column{"nation", Str}))
	mustCreate("ORDERS", NewSchema(Column{"cuskey", Int}, Column{"priority", Str}))
	mustCreate("PARTSUPP", NewSchema(Column{"supkey", Int}, Column{"cost", Int}))
	mustCreate("LINEITEM", NewSchema(Column{"ordkey", Int}, Column{"pskey", Int}, Column{"qty", Int}))

	for _, fk := range []ForeignKey{
		{"ORDERS", "cuskey", "CUSTOMER"},
		{"PARTSUPP", "supkey", "SUPPLIER"},
		{"LINEITEM", "ordkey", "ORDERS"},
		{"LINEITEM", "pskey", "PARTSUPP"},
	} {
		if err := db.AddForeignKey(fk.ChildTable, fk.ChildCol, fk.Parent); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateJoinIndex("LINEITEM"); err != nil {
		t.Fatal(err)
	}
	for _, ts := range [][2]string{{"CUSTOMER", "mktsegment"}, {"SUPPLIER", "name"}, {"LINEITEM", "qty"}} {
		if err := db.CreateTselect("LINEITEM", ts[0], ts[1]); err != nil {
			t.Fatal(err)
		}
	}

	segments := []string{"HOUSEHOLD", "AUTOMOBILE", "BUILDING", "MACHINERY"}
	for i := 0; i < customers; i++ {
		if _, err := db.Insert("CUSTOMER", Row{StrVal(fmt.Sprintf("cust-%d", i)), StrVal(segments[i%len(segments)])}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < suppliers; i++ {
		if _, err := db.Insert("SUPPLIER", Row{StrVal(fmt.Sprintf("SUPPLIER-%d", i)), StrVal("FRANCE")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < orders; i++ {
		if _, err := db.Insert("ORDERS", Row{IntVal(rng.Int63n(int64(customers))), StrVal("1-URGENT")}); err != nil {
			t.Fatal(err)
		}
	}
	partsupps := suppliers * 4
	for i := 0; i < partsupps; i++ {
		if _, err := db.Insert("PARTSUPP", Row{IntVal(rng.Int63n(int64(suppliers))), IntVal(rng.Int63n(1000))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < lineitems; i++ {
		if _, err := db.Insert("LINEITEM", Row{
			IntVal(rng.Int63n(int64(orders))),
			IntVal(rng.Int63n(int64(partsupps))),
			IntVal(1 + rng.Int63n(50)),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func slideQuery() StarQuery {
	return StarQuery{
		Root: "LINEITEM",
		Conds: []Cond{
			{Table: "CUSTOMER", Col: "mktsegment", Val: StrVal("HOUSEHOLD")},
			{Table: "SUPPLIER", Col: "name", Val: StrVal("SUPPLIER-1")},
		},
		Project: []ColRef{
			{Table: "CUSTOMER", Col: "name"},
			{Table: "SUPPLIER", Col: "name"},
			{Table: "LINEITEM", Col: "qty"},
			{Table: "ORDERS", Col: "priority"},
		},
	}
}

func TestStarQueryMatchesNaive(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 20, 8, 60, 500, 1)
	q := slideQuery()
	rows, err := db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.ExecuteStarNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pipelined %d rows, naive %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("row %d col %d: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// Every result row must satisfy both conditions.
	for _, r := range got {
		if r[1] != StrVal("SUPPLIER-1") {
			t.Errorf("condition violated: %v", r)
		}
	}
}

func TestStarQueryIOBeatsNaive(t *testing.T) {
	alloc := bigAlloc()
	db := NewDB(alloc, mcu.NewArena(0))
	buildTPCD(t, db, 40, 10, 100, 2000, 2)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	q := slideQuery()
	chip := alloc.Chip()

	chip.ResetStats()
	rows, err := db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.All(); err != nil {
		t.Fatal(err)
	}
	idxIO := chip.Stats().PageReads

	chip.ResetStats()
	if _, _, err := db.ExecuteStarNaive(q); err != nil {
		t.Fatal(err)
	}
	naiveIO := chip.Stats().PageReads

	if idxIO*3 > naiveIO {
		t.Errorf("indexed SPJ %d IOs vs naive %d IOs; want >=3x saving", idxIO, naiveIO)
	}
}

func TestStarQueryNoConds(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 5, 3, 10, 50, 3)
	rows, err := db.ExecuteStar(StarQuery{
		Root:    "LINEITEM",
		Project: []ColRef{{Table: "LINEITEM", Col: "qty"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("unconditional query returned %d rows, want 50", len(got))
	}
}

func TestStarQueryRootCondition(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 5, 3, 10, 300, 4)
	q := StarQuery{
		Root:    "LINEITEM",
		Conds:   []Cond{{Table: "LINEITEM", Col: "qty", Val: IntVal(7)}},
		Project: []ColRef{{Table: "LINEITEM", Col: "qty"}},
	}
	rows, err := db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.ExecuteStarNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("root cond: %d vs naive %d", len(got), len(want))
	}
	for _, r := range got {
		if r[0] != IntVal(7) {
			t.Errorf("root condition violated: %v", r)
		}
	}
}

func TestStarQueryErrors(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 5, 3, 10, 20, 5)
	if _, err := db.ExecuteStar(StarQuery{Root: "NOPE"}); err == nil {
		t.Error("unknown root accepted")
	}
	if _, err := db.ExecuteStar(StarQuery{
		Root:  "LINEITEM",
		Conds: []Cond{{Table: "CUSTOMER", Col: "name", Val: StrVal("x")}},
	}); !errors.Is(err, ErrNoIndex) {
		t.Errorf("missing tselect err = %v", err)
	}
	if _, err := db.ExecuteStar(StarQuery{
		Root:    "LINEITEM",
		Project: []ColRef{{Table: "CUSTOMER", Col: "ghost"}},
	}); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad projection err = %v", err)
	}
}

func TestDBForeignKeyValidation(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	db.CreateTable("P", NewSchema(Column{"v", Int}))
	db.CreateTable("C", NewSchema(Column{"pk", Int}))
	if err := db.AddForeignKey("C", "pk", "P"); err != nil {
		t.Fatal(err)
	}
	// Insert into C referencing a missing P row.
	if _, err := db.Insert("C", Row{IntVal(0)}); !errors.Is(err, ErrFKViolation) {
		t.Errorf("dangling fk err = %v", err)
	}
	db.Insert("P", Row{IntVal(9)})
	if _, err := db.Insert("C", Row{IntVal(0)}); err != nil {
		t.Errorf("valid fk rejected: %v", err)
	}
	if _, err := db.Insert("C", Row{IntVal(-1)}); !errors.Is(err, ErrFKViolation) {
		t.Errorf("negative fk err = %v", err)
	}
}

func TestDBFKMustBeInt(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	db.CreateTable("P", NewSchema(Column{"v", Int}))
	db.CreateTable("C", NewSchema(Column{"pk", Str}))
	if err := db.AddForeignKey("C", "pk", "P"); err == nil {
		t.Error("string fk column accepted")
	}
}

func TestDBDuplicateTable(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	db.CreateTable("T", NewSchema(Column{"v", Int}))
	if _, err := db.CreateTable("T", NewSchema(Column{"v", Int})); !errors.Is(err, ErrDupTable) {
		t.Errorf("dup table err = %v", err)
	}
}

func TestDBInsertMaintainsIndexes(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	db.CreateTable("T", NewSchema(Column{"v", Int}))
	if _, err := db.CreateIndex("T", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Insert("T", Row{IntVal(int64(i % 10))})
	}
	ix, err := db.Index("T", "v")
	if err != nil {
		t.Fatal(err)
	}
	rids, _, err := ix.Lookup(IntVal(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 10 {
		t.Errorf("index found %d, want 10", len(rids))
	}
}

func TestDBReorganizeIndex(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	db.CreateTable("T", NewSchema(Column{"v", Int}))
	ix, err := db.CreateIndex("T", "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		db.Insert("T", Row{IntVal(int64(i % 50))})
	}
	if err := ix.Reorganize(2, 4); err != nil {
		t.Fatal(err)
	}
	tree := ix.Tree()
	if tree == nil || tree.Len() != 500 {
		t.Fatalf("tree = %v after folding 500 postings", tree)
	}
	// The next fold merges a tail into a new tree that replaces the first.
	for i := 500; i < 600; i++ {
		db.Insert("T", Row{IntVal(int64(i % 50))})
	}
	if err := ix.Reorganize(2, 4); err != nil {
		t.Fatal(err)
	}
	if ix.Tree() == tree || ix.Tree().Len() != 600 {
		t.Fatalf("second fold: tree of %d postings", ix.Tree().Len())
	}
	got, _, err := ix.Lookup(IntVal(13))
	if err != nil {
		t.Fatal(err)
	}
	want := []RowID{13, 63, 113, 163, 213, 263, 313, 363, 413, 463, 513, 563}
	if !slices.Equal(got, want) {
		t.Errorf("lookup = %v, want %v", got, want)
	}
}

// DB.Flush folds an index on its first flush, and again only once the
// tail has grown to the tree's size.
func TestDBFlushFoldsIndexes(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	db.CreateTable("T", NewSchema(Column{"v", Int}))
	ix, err := db.CreateIndex("T", "v")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := db.Insert("T", Row{IntVal(int64(ix.Len() % 50))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(2000)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	tree := ix.Tree()
	if tree == nil || tree.Len() != 2000 || ix.KeysPages() != 0 {
		t.Fatalf("first flush: tree %v, tail %d Keys pages", tree, ix.KeysPages())
	}
	insert(200)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if ix.Tree() != tree || ix.KeysPages() == 0 || ix.KeysPages() >= tree.Leaves() {
		t.Fatalf("a tail of %d Keys pages under %d leaves was folded", ix.KeysPages(), tree.Leaves())
	}
	insert(2000)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if ix.Tree() == tree || ix.Tree().Len() != 4200 || ix.KeysPages() != 0 {
		t.Fatalf("a tail past the tree's size was not folded: tree of %d, tail %d Keys pages", ix.Tree().Len(), ix.KeysPages())
	}
	got, _, err := ix.Lookup(IntVal(7))
	if err != nil || len(got) != 84 {
		t.Fatalf("lookup = %d rids, %v; want 84", len(got), err)
	}
}

func TestJoinIndexContents(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 6, 4, 12, 100, 6)
	ji, err := db.JoinIndexOf("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	if ji.Len() != 100 {
		t.Fatalf("join index covers %d, want 100", ji.Len())
	}
	li, _ := db.Table("LINEITEM")
	ords, _ := db.Table("ORDERS")
	dims := ji.Dims()
	// Verify a sample of entries against the actual FK chain.
	for _, rid := range []RowID{0, 17, 50, 99} {
		entry, err := probeJoin(ji, rid)
		if err != nil {
			t.Fatal(err)
		}
		row, _ := li.Get(rid)
		ordRid := RowID(row[0].(IntVal))
		ordRow, _ := ords.Get(ordRid)
		cusRid := RowID(ordRow[0].(IntVal))
		at := func(table string) RowID {
			for i, d := range dims {
				if d == table {
					return entry[i]
				}
			}
			t.Fatalf("table %s not in dims %v", table, dims)
			return 0
		}
		if at("ORDERS") != ordRid {
			t.Errorf("rid %d: tjoin ORDERS = %d, want %d", rid, at("ORDERS"), ordRid)
		}
		if at("CUSTOMER") != cusRid {
			t.Errorf("rid %d: tjoin CUSTOMER = %d, want %d", rid, at("CUSTOMER"), cusRid)
		}
	}
	if _, err := probeJoin(ji, 100); !errors.Is(err, ErrNoSuchRow) {
		t.Errorf("OOB tjoin err = %v", err)
	}
}

func TestStarQueryRAMAccounted(t *testing.T) {
	arena := mcu.NewArena(0)
	db := NewDB(bigAlloc(), arena)
	buildTPCD(t, db, 10, 5, 20, 300, 7)
	rows, err := db.ExecuteStar(slideQuery())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.All(); err != nil {
		t.Fatal(err)
	}
	if arena.Used() != 0 {
		t.Errorf("query leaked %d bytes of RAM", arena.Used())
	}
}

func TestDimOrderRejectsDAG(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	db.CreateTable("A", NewSchema(Column{"b1", Int}, Column{"b2", Int}))
	db.CreateTable("B", NewSchema(Column{"v", Int}))
	db.AddForeignKey("A", "b1", "B")
	db.AddForeignKey("A", "b2", "B")
	if _, err := db.CreateJoinIndex("A"); err == nil {
		t.Error("diamond schema accepted; join index requires a tree")
	}
}

func TestStarQueryRangeCondition(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 10, 5, 30, 600, 40)
	q := StarQuery{
		Root:    "LINEITEM",
		Ranges:  []RangeCond{{Table: "LINEITEM", Col: "qty", Lo: IntVal(10), Hi: IntVal(20)}},
		Project: []ColRef{{Table: "LINEITEM", Col: "qty"}},
	}
	rows, err := db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.ExecuteStarNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("range query: indexed %d rows vs naive %d", len(got), len(want))
	}
	for _, r := range got {
		v := int64(r[0].(IntVal))
		if v < 10 || v > 20 {
			t.Errorf("range violated: qty=%d", v)
		}
	}
	if len(got) == 0 {
		t.Error("range query matched nothing (workload too small?)")
	}
}

func TestStarQueryRangePlusEquality(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 10, 5, 30, 800, 41)
	q := StarQuery{
		Root:  "LINEITEM",
		Conds: []Cond{{Table: "CUSTOMER", Col: "mktsegment", Val: StrVal("HOUSEHOLD")}},
		Ranges: []RangeCond{
			{Table: "LINEITEM", Col: "qty", Lo: IntVal(5), Hi: IntVal(45)},
		},
		Project: []ColRef{
			{Table: "CUSTOMER", Col: "mktsegment"},
			{Table: "LINEITEM", Col: "qty"},
		},
	}
	rows, err := db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.ExecuteStarNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("mixed query: indexed %d vs naive %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Errorf("row %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestStarQueryRangeNeedsTselect(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 5, 3, 10, 50, 42)
	_, err := db.ExecuteStar(StarQuery{
		Root:    "LINEITEM",
		Ranges:  []RangeCond{{Table: "ORDERS", Col: "priority", Lo: StrVal("1"), Hi: StrVal("2")}},
		Project: []ColRef{{Table: "LINEITEM", Col: "qty"}},
	})
	if !errors.Is(err, ErrNoIndex) {
		t.Errorf("missing tselect for range err = %v", err)
	}
}

func TestSelectIndexLookupRange(t *testing.T) {
	alloc := bigAlloc()
	tbl := NewTable(alloc, "t", NewSchema(Column{"v", Int}))
	ix, err := NewSelectIndex(tbl, "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		v := IntVal(int64(i % 100))
		rid, _ := tbl.Insert(Row{v})
		ix.Add(v, rid)
	}
	rids, st, err := ix.AppendLookupRange(nil, IntVal(10), IntVal(19))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 50 {
		t.Fatalf("range matched %d, want 50", len(rids))
	}
	for i := 1; i < len(rids); i++ {
		if rids[i] <= rids[i-1] {
			t.Error("range result not ascending by rowid")
		}
	}
	if st.Matches != 50 {
		t.Errorf("stats.Matches = %d", st.Matches)
	}
	// Negative-range and empty-range sanity.
	none, _, err := ix.AppendLookupRange(nil, IntVal(200), IntVal(300))
	if err != nil || len(none) != 0 {
		t.Errorf("empty range = %v, %v", none, err)
	}
	inv, _, err := ix.AppendLookupRange(nil, IntVal(20), IntVal(10))
	if err != nil || len(inv) != 0 {
		t.Errorf("inverted range = %v, %v", inv, err)
	}
}

// buildWindowed builds a star of three dimension tables of a few pages
// each under a root SALE of 400 rows whose tag column has exactly k rows
// of tag k for k in {1, 10, 11, 32, 33}, scattered over the table, and 0
// elsewhere — the survivor counts that fill one, W and W+1 windows at the
// window sizes of 256-byte pages.
func buildWindowed(t *testing.T) *DB {
	t.Helper()
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	dims := []struct {
		name, a, b string
		rows       int
	}{{"CUST", "name", "city", 60}, {"SUPP", "name", "nation", 8}, {"PART", "name", "kind", 12}}
	for _, d := range dims {
		if _, err := db.CreateTable(d.name, NewSchema(Column{d.a, Str}, Column{d.b, Str})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateTable("SALE", NewSchema(
		Column{"cust", Int}, Column{"supp", Int}, Column{"part", Int}, Column{"tag", Int}, Column{"qty", Int},
	)); err != nil {
		t.Fatal(err)
	}
	for _, fk := range []ForeignKey{{"SALE", "cust", "CUST"}, {"SALE", "supp", "SUPP"}, {"SALE", "part", "PART"}} {
		if err := db.AddForeignKey(fk.ChildTable, fk.ChildCol, fk.Parent); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateJoinIndex("SALE"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTselect("SALE", "SALE", "tag"); err != nil {
		t.Fatal(err)
	}
	for _, d := range dims {
		for i := 0; i < d.rows; i++ {
			if _, err := db.Insert(d.name, Row{StrVal(fmt.Sprintf("%s-%02d", d.name, i)), StrVal(fmt.Sprintf("%s%d", d.b, i%7))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	tags := make([]int64, 0, 400)
	for _, k := range []int{1, 10, 11, 32, 33} {
		for i := 0; i < k; i++ {
			tags = append(tags, int64(k))
		}
	}
	tags = tags[:400] // the rest are 0
	rng.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })
	for _, tag := range tags {
		if _, err := db.Insert("SALE", Row{
			IntVal(rng.Int63n(int64(dims[0].rows))),
			IntVal(rng.Int63n(int64(dims[1].rows))),
			IntVal(rng.Int63n(int64(dims[2].rows))),
			IntVal(tag),
			IntVal(rng.Int63n(1000)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db
}

// A star query assembles its rows a window at a time: whether the
// survivors fill one window, exactly W, W+1 or many, and whether the
// projection names one dimension table, three, or two columns of one, it
// must return exactly the index-free baseline's rows in root rowid order,
// and each window may read each dimension table's pages at most once.
// The dimension reads are the query's reads less those of the same query
// projecting the root column alone: same lookups, probes and root fetches.
func TestStarWindowBoundaries(t *testing.T) {
	db := buildWindowed(t)
	chip := db.alloc.Chip()
	pageSize := chip.Geometry().PageSize
	pagesOf := func(name string) int {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Pages() < 1 {
			t.Fatalf("%s: %d pages", name, tbl.Pages())
		}
		return tbl.Pages()
	}
	run := func(q StarQuery) (rows []Row, window int, stats QueryStats, reads int64) {
		before := chip.Stats()
		r, err := db.ExecuteStar(q)
		if err != nil {
			t.Fatal(err)
		}
		window = r.window
		if rows, err = r.All(); err != nil {
			t.Fatal(err)
		}
		return rows, window, r.Stats(), chip.Stats().Sub(before).PageReads
	}
	shapes := []struct {
		name string
		proj []ColRef
		dims []string
	}{
		{"one dimension", []ColRef{{"CUST", "name"}, {"SALE", "qty"}}, []string{"CUST"}},
		{"three dimensions", []ColRef{{"CUST", "name"}, {"SUPP", "nation"}, {"SALE", "qty"}, {"PART", "kind"}}, []string{"CUST", "SUPP", "PART"}},
		{"two columns of one dimension", []ColRef{{"CUST", "city"}, {"SALE", "qty"}, {"CUST", "name"}}, []string{"CUST"}},
	}
	for _, sh := range shapes {
		w := max(1, pageSize/(8*len(sh.dims)))
		dimPages := 0
		for _, d := range sh.dims {
			dimPages += pagesOf(d)
		}
		for _, tag := range []int{1, w, w + 1, -1} {
			var conds []Cond
			survivors := 400
			if tag >= 0 {
				conds = []Cond{{Table: "SALE", Col: "tag", Val: IntVal(int64(tag))}}
				survivors = tag
			}
			name := fmt.Sprintf("%s/%d survivors", sh.name, survivors)
			q := StarQuery{Root: "SALE", Conds: conds, Project: sh.proj}
			got, window, stats, reads := run(q)
			want, _, err := db.ExecuteStarNaive(q)
			if err != nil {
				t.Fatal(err)
			}
			if window != w {
				t.Errorf("%s: window of %d survivors, want %d", name, window, w)
			}
			if len(want) != survivors || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: pipeline %d rows, naive %d, want %d, in the same order", name, len(got), len(want), survivors)
			}
			fetchSteps := len(sh.dims) + 1
			if stats.Survivors != survivors || stats.TuplesFetched != survivors*fetchSteps {
				t.Errorf("%s: stats %+v, want %d survivors and %d tuples fetched", name, stats, survivors, survivors*fetchSteps)
			}
			_, _, _, baseReads := run(StarQuery{Root: "SALE", Conds: conds, Project: []ColRef{{"SALE", "qty"}}})
			windows := (survivors + w - 1) / w
			if dim := reads - baseReads; dim > int64(windows*dimPages) {
				t.Errorf("%s: %d dimension page reads over %d windows of %d pages", name, dim, windows, dimPages)
			}
		}
	}
}

// probeJoin returns the dim rowids (aligned with Dims()) for a root rowid,
// through a page held for this one probe.
func probeJoin(ji *JoinIndex, root RowID) ([]RowID, error) {
	var h logstore.HeldPage
	defer h.Release()
	return ji.get(root, make([]RowID, 0, len(ji.dims)), &h)
}
