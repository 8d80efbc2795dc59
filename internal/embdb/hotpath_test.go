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

// A Tjoin probe allocates the rid slice it returns; a result row of a
// star query its share of its window's slab of rows and the boxes of its
// projected values — the tuples the row is assembled from are never
// materialized.
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
	// dimension steps): the window's slab, and a string plus its box for
	// each of the two Str columns of each row — 65 allocations. The 200
	// rows after the warm-up row span twelve windows, 780 allocations,
	// which AllocsPerRun floors to 3 per row; one more allocation per row,
	// or two more per window, reads 4. It was 5 with one Row per row, and
	// 17 before that: a map, the Tjoin record and its rid slice, and a copy
	// and every column of each fetched tuple.
	if perRow > 3 {
		t.Errorf("StarRows.Next: %.0f allocs per row, ceiling 3", perRow)
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
		w, rids := rows.window, rows.rids
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

// Lookups, Tjoin probes and tuple fetches on one shared database, and on
// databases of other page sizes, all draw their pages from the one pool:
// every answer must come back whole (run under -race).
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
			for round := 0; round < 4; round++ {
				rows, err := db.ExecuteStar(slideQuery())
				if err != nil {
					t.Error(err)
					return
				}
				got, err := rows.All()
				if err != nil {
					t.Error(err)
					return
				}
				gotSet := render(got)
				if len(got) != len(want) || len(gotSet) != len(wantSet) {
					t.Errorf("goroutine %d: %d rows, want %d", g, len(got), len(want))
					return
				}
				for k, n := range wantSet {
					if gotSet[k] != n {
						t.Errorf("goroutine %d: row %s ×%d, want ×%d", g, k, gotSet[k], n)
						return
					}
				}
			}
		}(g, db)
	}
	wg.Wait()
}
