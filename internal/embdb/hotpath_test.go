package embdb

import (
	"errors"
	"fmt"
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
// star query the Row and the boxes of its projected values — the tuples
// the row is assembled from are never materialized.
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
		if rids, err := ji.Get(700); err != nil || len(rids) != 4 {
			t.Fatalf("tjoin probe = %v, %v", rids, err)
		}
	})
	if probe > 1 {
		t.Errorf("JoinIndex.Get: %.0f allocs, ceiling 1", probe)
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
	// The Row, and a string plus its box for each of the two Str columns;
	// it was 17: a map, the Tjoin record and its rid slice, and a copy and
	// every column of each fetched tuple.
	if perRow > 5 {
		t.Errorf("StarRows.Next: %.0f allocs per row, ceiling 5", perRow)
	}
}

// A star query holds a page for its Tjoin probes and one per fetched
// table: it must hand every one back when the stream is drained, closed
// early, or fails mid-stream.
func TestStarRowsReleaseHeldPages(t *testing.T) {
	alloc := bigAlloc()
	db := NewDB(alloc, mcu.NewArena(0))
	buildTPCD(t, db, 40, 6, 200, 1500, 3)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	held := func(r *StarRows) int {
		n := 0
		if r.jpage.Holding() {
			n++
		}
		for i := range r.fetch {
			if r.fetch[i].page.Holding() {
				n++
			}
		}
		return n
	}
	q := slideQuery()

	rows, err := db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	all, err := rows.All()
	if err != nil || len(all) < 2 {
		t.Fatalf("drained: %d rows, %v", len(all), err)
	}
	if n := held(rows); n != 0 {
		t.Errorf("drained stream holds %d pages", n)
	}
	last := rows.rids[len(rows.rids)-1]

	rows, err = db.ExecuteStar(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rows.Next(); !ok {
		t.Fatal(rows.Err())
	}
	if n := held(rows); n != 1+len(rows.fetch) {
		t.Errorf("mid-stream: %d pages held, want %d", n, 1+len(rows.fetch))
	}
	rows.Close()
	if n := held(rows); n != 0 {
		t.Errorf("stream closed early holds %d pages", n)
	}
	if row, ok := rows.Next(); ok {
		t.Errorf("closed stream yielded %v", row)
	}

	// Corrupt the LINEITEM page of the last survivor: the stream fails
	// when it gets there.
	li, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	id, err := li.recordID(last)
	if err != nil {
		t.Fatal(err)
	}
	ppb := alloc.Chip().Geometry().PagesPerBlock
	phys := li.log.Blocks()[int(id.Page)/ppb]*ppb + int(id.Page)%ppb
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
		t.Fatalf("stream over a corrupt page: %d rows, err = %v; want ErrCorruptPage", len(got), err)
	}
	if n := held(rows); n != 0 {
		t.Errorf("failed stream holds %d pages", n)
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
