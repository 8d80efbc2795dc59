package embdb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/mcu"
	"pds/internal/race"
)

// A lookup descends the tree and scans the tail's summaries in two pooled
// pages, searching node pages, testing filters and comparing postings
// where they lie: what it allocates is the probe key and the rid list it
// returns — never per node, summary or Keys page. Four times the index
// behind the same four matches must cost the same, sequential or folded
// into a tree with a tail behind it.
func TestLookupAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(n int, fold bool) (allocs float64, pages int) {
		_, ix, want := loadCustomer(t, bigAlloc(), n, n/4)
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
		pages = ix.KeysPages()
		if fold {
			if err := ix.Reorganize(2, 4); err != nil {
				t.Fatal(err)
			}
			// A tail of other keys, flushed and unflushed, behind the tree.
			for i := 0; i < 300; i++ {
				if err := ix.Add(StrVal("Nice"), RowID(n+i)); err != nil {
					t.Fatal(err)
				}
			}
			pages = ix.Tree().Leaves()
		}
		allocs = testing.AllocsPerRun(20, func() {
			got, _, err := ix.Lookup(StrVal("Lyon"))
			if err != nil || len(got) != len(want) {
				t.Fatalf("lookup = %d rids, %v; want %d", len(got), err, len(want))
			}
		})
		return allocs, pages
	}
	for _, fold := range []bool{false, true} {
		unit := "Keys pages"
		if fold {
			unit = "leaves"
		}
		small, smallPages := measure(2000, fold)
		big, bigPages := measure(8000, fold)
		t.Logf("%.0f allocs over %d %s, %.0f over %d", small, smallPages, unit, big, bigPages)
		if big > small {
			t.Errorf("Lookup allocates per page: %.0f allocs over %d %s, %.0f over %d", small, smallPages, unit, big, bigPages)
		}
		// The key, and the rid list growing to four entries; it was 137 and
		// 512: a filter copy per summary, a page copy and a record table per
		// Keys page read.
		if small > 4 {
			t.Errorf("Lookup over %s: %.0f allocs, ceiling 4", unit, small)
		}
	}
}

// With room in dst, AppendLookup allocates the probe key and nothing
// else, over a bare tail and over a tree with a tail behind it; what it
// appends follows dst's own rowids untouched.
func TestAppendLookupAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, fold := range []bool{false, true} {
		_, ix, want := loadCustomer(t, bigAlloc(), 4000, 4)
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
		if fold {
			if err := ix.Reorganize(2, 4); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				if err := ix.Add(StrVal("Lyon"), RowID(4000+i)); err != nil {
					t.Fatal(err)
				}
				want = append(want, RowID(4000+i))
			}
		}
		dst := make([]RowID, 3, 3+len(want))
		dst[0], dst[1], dst[2] = 7, 8, 9
		allocs := testing.AllocsPerRun(20, func() {
			got, st, err := ix.AppendLookup(dst, StrVal("Lyon"))
			if err != nil || len(got) != 3+len(want) || st.Matches != len(want) {
				t.Fatalf("lookup = %d rids (%d matches), %v; want 3 + %d", len(got), st.Matches, err, len(want))
			}
		})
		got, _, err := ix.AppendLookup(dst, StrVal("Lyon"))
		if err != nil || !slices.Equal(got[:3], []RowID{7, 8, 9}) || !slices.Equal(got[3:], want) {
			t.Errorf("fold %v: AppendLookup = %v…, %v; want dst's 7 8 9, then the %d matches", fold, got[:min(len(got), 6)], err, len(want))
		}
		t.Logf("fold %v: %.0f allocs for %d matches", fold, allocs, len(want))
		if allocs > 1 {
			t.Errorf("fold %v: AppendLookup into a list with room: %.0f allocs, ceiling 1 (the key)", fold, allocs)
		}
	}
}

// A star query's candidate lists come from a pool, so what a whole query
// allocates does not grow with their length: ten times the matches of
// one condition behind a Tselect tree, intersected down to the same
// survivors, must cost the same. Without the pool each list grew by
// doubling from nil on every query.
func TestStarQueryAllocsIndependentOfListLength(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(facts int) (allocs float64, matches int) {
		db := NewDB(bigAlloc(), mcu.NewArena(0))
		for _, tbl := range []struct {
			name string
			s    Schema
		}{
			{"SEGMENT", NewSchema(Column{"name", Str})},
			{"FACT", NewSchema(Column{"seg", Int}, Column{"tag", Int})},
		} {
			if _, err := db.CreateTable(tbl.name, tbl.s); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.AddForeignKey("FACT", "seg", "SEGMENT"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateJoinIndex("FACT"); err != nil {
			t.Fatal(err)
		}
		for _, ts := range [][2]string{{"SEGMENT", "name"}, {"FACT", "tag"}} {
			if err := db.CreateTselect("FACT", ts[0], ts[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range []string{"north", "south", "east", "west"} {
			if _, err := db.Insert("SEGMENT", Row{StrVal(name)}); err != nil {
				t.Fatal(err)
			}
		}
		// One fact in four is in segment north; forty carry tag 1, ten of
		// them in north.
		step := facts / 40
		for i := 0; i < facts; i++ {
			tag := 0
			if i%step == i/step%4 {
				tag = 1
			}
			if _, err := db.Insert("FACT", Row{IntVal(int64(i % 4)), IntVal(int64(tag))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if ix, err := db.Tselect("FACT", "SEGMENT", "name"); err != nil || ix.Tree() == nil {
			t.Fatalf("north's postings are not behind a tree: %v", err)
		}
		q := StarQuery{
			Root:    "FACT",
			Conds:   []Cond{{Table: "SEGMENT", Col: "name", Val: StrVal("north")}, {Table: "FACT", Col: "tag", Val: IntVal(1)}},
			Project: []ColRef{{Table: "SEGMENT", Col: "name"}, {Table: "FACT", Col: "tag"}},
		}
		allocs = testing.AllocsPerRun(20, func() {
			rows, err := db.ExecuteStar(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rows.All()
			if err != nil || len(got) != 10 {
				t.Fatalf("query = %d rows, %v; want 10", len(got), err)
			}
			matches = rows.Stats().CandidateLists[0]
		})
		return allocs, matches
	}
	small, smallMatches := measure(1600)
	big, bigMatches := measure(16000)
	t.Logf("%.0f allocs with %d candidates, %.0f with %d", small, smallMatches, big, bigMatches)
	if smallMatches != 400 || bigMatches != 4000 {
		t.Fatalf("candidate lists of %d and %d, want 400 and 4000", smallMatches, bigMatches)
	}
	if big > small {
		t.Errorf("a star query allocates per candidate: %.0f allocs with %d candidates, %.0f with %d", small, smallMatches, big, bigMatches)
	}
}

// A Tjoin probe allocates the rid slice it returns; a result row of a
// star query its share of its window's slab of rows and string buffer,
// and of the boxes of the distinct dimension tuples it is assembled from
// — the tuples themselves are never materialized.
func TestStarRowAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 40, 6, 200, 1500, 3)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ji, err := db.JoinIndexOf("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	probe := testing.AllocsPerRun(50, func() {
		if rids, err := probeJoin(ji, 700); err != nil || len(rids) != 4 {
			t.Fatalf("tjoin probe = %v, %v", rids, err)
		}
	})
	if probe > 1 {
		t.Errorf("tjoin probe: %.0f allocs, ceiling 1", probe)
	}

	// Two strings and a small int out of three tables of two to three
	// columns each.
	q := StarQuery{Root: "LINEITEM", Project: []ColRef{
		{Table: "CUSTOMER", Col: "name"},
		{Table: "LINEITEM", Col: "qty"},
		{Table: "SUPPLIER", Col: "nation"},
	}}
	rows, err := db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	perRow := testing.AllocsPerRun(200, func() {
		row, ok := rows.Next()
		if !ok || len(row) != 3 {
			t.Fatalf("row = %v, %v (%v)", row, ok, rows.Err())
		}
	})
	t.Logf("%.0f allocs per Tjoin probe, %.0f per result row", probe, perRow)
	// Rows are assembled a window of 16 at a time (256-byte pages, two
	// dimension steps): the window's slab, its string buffer (sized per
	// fetch step at the step's first tuple), and one box per Str column
	// of each distinct CUSTOMER and
	// SUPPLIER tuple of the window — the qty is a small int, which boxes
	// for free. AllocsPerRun floors that to 1 per row; one more allocation
	// per row reads 2. It was 3 with a string and a box per Str column of
	// every row, 5 with one Row per row, and 17 before that: a map, the
	// Tjoin record and its rid slice, and a copy and every column of each
	// fetched tuple.
	if perRow > 1 {
		t.Errorf("StarRows.Next: %.0f allocs per row, ceiling 1", perRow)
	}
}

// A star query holds a page for its Tjoin probes, one per fetched table
// and its page of sort entries, and reserves RAM for its rid lists and
// entries: it must hand every page back and leave the arena idle when the
// stream is drained, closed early, or fails mid-window. A failure ends
// the stream at the window that hit it, so what came before is a whole
// number of windows of the baseline's rows.
func TestStarRowsReleaseHeldPages(t *testing.T) {
	build := func() (*DB, *flash.Allocator, *mcu.Arena) {
		alloc := bigAlloc()
		arena := mcu.NewArena(0)
		db := NewDB(alloc, arena)
		buildTPCD(t, db, 40, 6, 200, 1500, 3)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		return db, alloc, arena
	}
	released := func(r *StarRows, arena *mcu.Arena, when string) {
		t.Helper()
		n := 0
		if r.jpage.Holding() {
			n++
		}
		for i := range r.fetch {
			if r.fetch[i].page.Holding() {
				n++
			}
		}
		if n != 0 {
			t.Errorf("%s: %d pages held", when, n)
		}
		if r.ents != nil {
			t.Errorf("%s: entry page not handed back to its pool", when)
		}
		if len(r.lists) != 0 || r.rids != nil {
			t.Errorf("%s: %d rid lists not handed back to their pool", when, len(r.lists))
		}
		if used := arena.Used(); used != 0 {
			t.Errorf("%s: arena holds %d bytes", when, used)
		}
	}
	q := slideQuery()

	db, _, arena := build()
	rows, err := db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	all, err := rows.All()
	if err != nil || len(all) <= 2*rows.window {
		t.Fatalf("drained: %d rows in windows of %d, %v", len(all), rows.window, err)
	}
	released(rows, arena, "drained stream")

	rows, err = db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rows.Next(); !ok {
		t.Fatal(rows.Err())
	}
	n := 0
	for i := range rows.fetch {
		if rows.fetch[i].page.Holding() {
			n++
		}
	}
	if !rows.jpage.Holding() || n != len(rows.fetch) || rows.ents == nil || arena.Used() == 0 {
		t.Errorf("mid-stream: want %d pages, the entry page and a reservation held", 1+len(rows.fetch))
	}
	rows.Close()
	released(rows, arena, "stream closed early")
	if row, ok := rows.Next(); ok {
		t.Errorf("closed stream yielded %v", row)
	}
	rows.Close()

	// Corrupt the page of LINEITEM (read in pass 1), then, on a fresh
	// database, of ORDERS (read in pass 2) that the stream needs last: it
	// fails at the first window that needs the page.
	for _, table := range []string{"LINEITEM", "ORDERS"} {
		db, alloc, arena := build()
		want, _, err := db.ExecuteStarNaive(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := db.ExecuteStar(q)
		if err != nil {
			t.Fatal(err)
		}
		w, rids := rows.window, slices.Clone(rows.rids)
		rows.Close()
		tbl, err := db.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		ji, err := db.JoinIndexOf(q.Root)
		if err != nil {
			t.Fatal(err)
		}
		// The first window that reads each page of the table.
		first := map[int32]int{}
		for i, rid := range rids {
			trid := rid
			if table != q.Root {
				dims, err := probeJoin(ji, rid)
				if err != nil {
					t.Fatal(err)
				}
				trid = dims[slices.Index(ji.Dims(), table)]
			}
			id, err := tbl.recordID(trid)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := first[id.Page]; !ok {
				first[id.Page] = i / w
			}
		}
		page, failing := int32(0), -1
		for p, win := range first {
			if win > failing || win == failing && p < page {
				page, failing = p, win
			}
		}
		if failing < 1 {
			t.Fatalf("%s: every page is read in the first window", table)
		}
		ppb := alloc.Chip().Geometry().PagesPerBlock
		phys := tbl.log.Blocks()[int(page)/ppb]*ppb + int(page)%ppb
		img, err := alloc.Chip().Page(phys)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), img...)
		bad[len(bad)-1] ^= 0x01
		if err := alloc.Chip().CorruptPage(phys, bad); err != nil {
			t.Fatal(err)
		}
		rows, err = db.ExecuteStar(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rows.All()
		if !errors.Is(err, logstore.ErrCorruptPage) {
			t.Fatalf("%s: stream over a corrupt page: %d rows, err = %v; want ErrCorruptPage", table, len(got), err)
		}
		if len(got) != failing*w || fmt.Sprint(got) != fmt.Sprint(want[:len(got)]) {
			t.Errorf("%s: failed stream returned %d rows; want the %d windows of %d before the failing one", table, len(got), failing, w)
		}
		t.Logf("%s: failed at window %d of %d, %d rows", table, failing, (len(rids)+w-1)/w, len(got))
		released(rows, arena, table+": failed stream")
	}
}

// A star row's values live in its window's slab and string buffer, and
// its candidate lists in the pool until Close: rows held from one query
// must stay byte-equal while later windows fill, after Close, and while
// other queries draw the pooled lists — and a stream interleaved with
// another query must still answer what the naive plan does. 256-byte
// pages and three dimension steps make windows of ten rows.
func TestStarRowsOutliveTheirBuffers(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, db, 40, 6, 200, 1500, 3)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	q := slideQuery()
	other := slideQuery()
	other.Conds = []Cond{{Table: "CUSTOMER", Col: "mktsegment", Val: StrVal("BUILDING")}}
	other.Ranges = []RangeCond{{Table: "LINEITEM", Col: "qty", Lo: IntVal(5), Hi: IntVal(40)}}
	want, _, err := db.ExecuteStarNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func(q StarQuery) []Row {
		t.Helper()
		rows, err := db.ExecuteStar(q)
		if err != nil {
			t.Fatal(err)
		}
		all, err := rows.All()
		if err != nil {
			t.Fatal(err)
		}
		return all
	}
	// firstWindow opens q's stream and takes its first window of rows.
	firstWindow := func() (*StarRows, []Row) {
		t.Helper()
		rows, err := db.ExecuteStar(q)
		if err != nil {
			t.Fatal(err)
		}
		var got []Row
		for len(got) < rows.window {
			row, ok := rows.Next()
			if !ok {
				t.Fatalf("stream ended after %d rows, %v", len(got), rows.Err())
			}
			got = append(got, row)
		}
		if len(want) <= 3*rows.window {
			t.Fatalf("%d rows in windows of %d: want more than three windows", len(want), rows.window)
		}
		return rows, got
	}

	t.Run("later windows", func(t *testing.T) {
		rows, first := firstWindow()
		before := fmt.Sprint(first)
		rest, err := rows.All()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(first) != before {
			t.Errorf("window 1 changed as later windows filled:\n%s\nnow\n%s", before, fmt.Sprint(first))
		}
		if got := append(first, rest...); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("stream = %d rows, differs from the naive plan's %d", len(got), len(want))
		}
	})

	t.Run("after Close", func(t *testing.T) {
		rows, first := firstWindow()
		before := fmt.Sprint(first)
		rows.Close()
		for i := 0; i < 3; i++ {
			run(q)
			run(other)
		}
		if fmt.Sprint(first) != before {
			t.Errorf("rows changed after Close and later queries:\n%s\nnow\n%s", before, fmt.Sprint(first))
		}
	})

	t.Run("pooled lists", func(t *testing.T) {
		held := run(q)
		before := fmt.Sprint(held)
		// A stream left open across whole queries that draw rid lists:
		// its survivors must stay its own until it is closed.
		rows, first := firstWindow()
		otherWant := fmt.Sprint(run(other))
		for i := 0; i < 3; i++ {
			if got := fmt.Sprint(run(other)); got != otherWant {
				t.Fatalf("query %d beside an open stream answered differently", i)
			}
		}
		rest, err := rows.All()
		if err != nil {
			t.Fatal(err)
		}
		if got := append(first, rest...); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("stream interleaved with other queries = %d rows, differs from the naive plan's %d", len(got), len(want))
		}
		if fmt.Sprint(held) != before {
			t.Error("rows held from a finished query changed as later queries reused its rid lists")
		}
	})
}

// Lookups, Tjoin probes and tuple fetches on one shared database, and on
// databases of other page sizes, all draw their pages, rid lists and
// pages of sort entries from the process-wide pools: every answer must
// come back whole (run under -race). Each goroutine keeps a stream open
// while it runs a whole query on another database, so lists pass between
// databases while the streams that drew them are still reading.
func TestReadPathSharedPagesConcurrent(t *testing.T) {
	shared := NewDB(bigAlloc(), mcu.NewArena(0))
	buildTPCD(t, shared, 40, 6, 200, 1500, 3)
	if err := shared.Flush(); err != nil {
		t.Fatal(err)
	}
	want, _, err := shared.ExecuteStarNaive(slideQuery())
	if err != nil || len(want) == 0 {
		t.Fatalf("reference: %d rows, %v", len(want), err)
	}
	render := func(rows []Row) map[string]int {
		set := map[string]int{}
		for _, r := range rows {
			set[fmt.Sprint(r)]++
		}
		return set
	}
	wantSet := render(want)

	dbs := make([]*DB, 6)
	for g := range dbs {
		dbs[g] = shared
		if g%2 == 1 {
			// Its own chip, its own page size, its tail unflushed.
			geo := flash.Geometry{PageSize: 512 << (g / 2), PagesPerBlock: 8, Blocks: 1024}
			dbs[g] = NewDB(flash.NewAllocator(flash.NewChip(geo)), mcu.NewArena(0))
			buildTPCD(t, dbs[g], 40, 6, 200, 1500, 3)
		}
	}
	var wg sync.WaitGroup
	for g, db := range dbs {
		wg.Add(1)
		go func(g int, db *DB) {
			defer wg.Done()
			check := func(got []Row, err error) bool {
				if err != nil {
					t.Error(err)
					return false
				}
				gotSet := render(got)
				if len(got) != len(want) || len(gotSet) != len(wantSet) {
					t.Errorf("goroutine %d: %d rows, want %d", g, len(got), len(want))
					return false
				}
				for k, n := range wantSet {
					if gotSet[k] != n {
						t.Errorf("goroutine %d: row %s ×%d, want ×%d", g, k, gotSet[k], n)
						return false
					}
				}
				return true
			}
			peer := dbs[(g+1)%len(dbs)]
			for round := 0; round < 4; round++ {
				rows, err := db.ExecuteStar(slideQuery())
				if err != nil {
					t.Error(err)
					return
				}
				first, ok := rows.Next()
				if !ok {
					t.Errorf("goroutine %d: empty stream, %v", g, rows.Err())
					return
				}
				other, err := peer.ExecuteStar(slideQuery())
				if err != nil {
					t.Error(err)
					return
				}
				if !check(other.All()) {
					return
				}
				rest, err := rows.All()
				if !check(append([]Row{first}, rest...), err) {
					return
				}
			}
		}(g, db)
	}
	wg.Wait()
}
