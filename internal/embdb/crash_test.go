package embdb

import (
	"errors"
	"fmt"
	"testing"

	"pds/internal/flash"
	"pds/internal/logstore"
)

// The table crash battery now runs generically from internal/durable
// (the "embdb" Kind); this file keeps the directed reopen-resume and
// in-place-area fault tests: a failed in-place update must leave every
// prior entry readable, because the block rewrite is copy-on-write.

var crashSchema = NewSchema(Column{"id", Int}, Column{"name", Str})

// TestReopenTableResumesInserts closes the loop: recover mid-workload,
// keep inserting, sync, recover again.
func TestReopenTableResumesInserts(t *testing.T) {
	chip := flash.NewChip(flash.SmallGeometry())
	alloc := flash.NewAllocator(chip)
	j, err := logstore.NewJournal(alloc)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(alloc, "customer", crashSchema)
	for i := 0; i < 20; i++ {
		if _, err := tbl.Insert(Row{IntVal(int64(i)), StrVal("synced")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := SyncTables(j, tbl); err != nil {
		t.Fatal(err)
	}
	chip.SetCrashPlan(&flash.CrashPlan{Seed: 3, Op: flash.CrashWrite, After: 0})
	for i := 20; i < 40 && err == nil; i++ {
		_, err = tbl.Insert(Row{IntVal(int64(i)), StrVal("lost")})
	}
	if err == nil {
		err = SyncTables(j, tbl)
	}
	if !errors.Is(err, flash.ErrCrashed) {
		t.Fatalf("workload after crash plan = %v, want ErrCrashed", err)
	}

	rec, err := logstore.Recover(chip.Reopen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := ReopenTable(rec, "customer", crashSchema)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 20 {
		t.Fatalf("recovered rows = %d, want 20", tbl2.Len())
	}
	for i := 20; i < 30; i++ {
		if _, err := tbl2.Insert(Row{IntVal(int64(i)), StrVal("resumed")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := SyncTables(rec.Journal, tbl2); err != nil {
		t.Fatal(err)
	}
	rec2, err := logstore.Recover(tbl2.Chip().Reopen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl3, err := ReopenTable(rec2, "customer", crashSchema)
	if err != nil {
		t.Fatal(err)
	}
	if tbl3.Len() != 30 {
		t.Fatalf("rows after resumed sync = %d, want 30", tbl3.Len())
	}
	row, err := tbl3.Get(25)
	if err != nil || row[1] != StrVal("resumed") {
		t.Fatalf("row 25 = %v, %v", row, err)
	}
}

// Satellite: the in-place area under injected write faults. The block
// rewrite is copy-on-write, so a program failure in the middle of an
// update must leave every previously inserted entry readable.
func TestInPlaceFailedUpdateKeepsPriorValues(t *testing.T) {
	// Small pages force the index across several pages, so a block rewrite
	// programs many pages and the fault sweep has real depth.
	alloc := flash.NewAllocator(flash.NewChip(flash.SmallGeometry()))
	x := NewInPlaceIndex(alloc)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i%50)) }
	const loaded = 120
	for i := 0; i < loaded; i++ {
		if err := x.Insert(key(i), RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Fail every page program of the next update in turn: whichever write
	// of the block rewrite dies, the index must still serve the old state.
	for after := 0; ; after++ {
		alloc.Chip().InjectWriteFault(after)
		err := x.Insert(key(loaded), RowID(loaded))
		if err == nil {
			break // the fault point lies beyond this update: sweep done
		}
		if !errors.Is(err, flash.ErrInjectedFault) {
			t.Fatalf("after=%d: %v", after, err)
		}
		for i := 0; i < loaded; i++ {
			rids, err := lookup(x, key(i))
			if err != nil {
				t.Fatalf("after=%d: lookup %s: %v", after, key(i), err)
			}
			found := false
			for _, r := range rids {
				if r == RowID(i) {
					found = true
				}
			}
			if !found {
				t.Fatalf("after=%d: entry %d lost after failed update", after, i)
			}
		}
	}
	// The sweep's final Insert succeeded, and the index keeps working.
	if x.entries != loaded+1 {
		t.Fatalf("entries = %d, want %d", x.entries, loaded+1)
	}
}

// An erase fault while releasing the superseded block also may not lose
// data: the update is abandoned with the old block still authoritative.
func TestInPlaceFailedReleaseKeepsPriorValues(t *testing.T) {
	alloc := flash.NewAllocator(flash.NewChip(flash.SmallGeometry()))
	x := NewInPlaceIndex(alloc)
	const loaded = 60
	for i := 0; i < loaded; i++ {
		if err := x.Insert([]byte(fmt.Sprintf("key-%04d", i)), RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	alloc.Chip().InjectEraseFault(0)
	err := x.Insert([]byte("key-0000"), RowID(loaded))
	if !errors.Is(err, flash.ErrInjectedFault) {
		t.Fatalf("insert with erase fault = %v, want ErrInjectedFault", err)
	}
	for i := 0; i < loaded; i++ {
		rids, err := lookup(x, []byte(fmt.Sprintf("key-%04d", i)))
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if len(rids) == 0 {
			t.Fatalf("entry %d lost after failed block release", i)
		}
	}
}
