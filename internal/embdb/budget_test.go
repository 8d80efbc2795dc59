package embdb_test

import (
	"fmt"
	"testing"

	"pds/internal/embdb"
	"pds/internal/mcu"
	"pds/internal/race"
	"pds/internal/workload"
)

// The star half of the token read path on the smartcard profile: every
// segment × supplier query of the E4 shape over BuildStar at SF 0.002
// (seed 1), after DB.Flush has folded the Tselect indexes into trees. A
// query reads each Tselect tree once, holds one page per structure while
// it assembles rows, and fetches each window's dimension tuples in
// dimension rowid order, so it must average at most 200 page reads — it
// read ~597 when Tselect was a sequential index and every Tjoin probe and
// tuple fetch read its page anew, and ~281 while the CUSTOMER tuples
// were fetched in LINEITEM rowid order — and answer exactly as the
// index-free baseline. Page reads are the virtual clock's unit, so the
// gate is deterministic.
func TestStarQueryPageBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("one goroutine counting pages: nothing for the race detector, ten times the time")
	}
	dev := mcu.NewDevice(mcu.Smartcard())
	db := embdb.NewDB(dev.Alloc, dev.RAM)
	scale := workload.StarScaleFactor(0.002)
	if err := workload.BuildStar(db, scale, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var reads int64
	queries := 0
	for _, seg := range workload.MktSegments {
		for s := 0; s < scale.Suppliers; s++ {
			q := embdb.StarQuery{
				Root: "LINEITEM",
				Conds: []embdb.Cond{
					{Table: "CUSTOMER", Col: "mktsegment", Val: embdb.StrVal(seg)},
					{Table: "SUPPLIER", Col: "name", Val: embdb.StrVal(fmt.Sprintf("SUPPLIER-%d", s))},
				},
				Project: []embdb.ColRef{{Table: "CUSTOMER", Col: "name"}, {Table: "LINEITEM", Col: "qty"}},
			}
			before := dev.Chip.Stats()
			rows, err := db.ExecuteStar(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rows.All()
			if err != nil {
				t.Fatal(err)
			}
			reads += dev.Chip.Stats().Sub(before).PageReads
			queries++
			want, _, err := db.ExecuteStarNaive(q)
			if err != nil {
				t.Fatal(err)
			}
			// Both list the rows in root rowid order.
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s/SUPPLIER-%d: pipeline %d rows, naive %d", seg, s, len(got), len(want))
			}
		}
	}
	mean := float64(reads) / float64(queries)
	t.Logf("%d queries, %.1f page reads per query", queries, mean)
	if queries != 100 {
		t.Errorf("%d queries, want 100", queries)
	}
	if mean > 200 {
		t.Errorf("star queries read %.1f pages on average, budget 200", mean)
	}
}
