package embdb

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pds/internal/flash"
	"pds/internal/logstore"
)

// Failure injection: a device fault mid-operation must surface as a clean
// error, leave previously flushed data readable, and never corrupt the
// structures silently.

func TestInsertSurvivesWriteFault(t *testing.T) {
	alloc := bigAlloc()
	tbl := NewTable(alloc, "t", NewSchema(Column{"v", Int}))
	// Load enough to flush several pages.
	for i := 0; i < 200; i++ {
		if _, err := tbl.Insert(Row{IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	flushedRows := tbl.Len()

	// Fail the very next flash write, then keep inserting until the
	// buffered page tries to flush.
	alloc.Chip().InjectWriteFault(0)
	var gotFault bool
	for i := 0; i < 200; i++ {
		if _, err := tbl.Insert(Row{IntVal(int64(1000 + i))}); err != nil {
			if !errors.Is(err, flash.ErrInjectedFault) {
				t.Fatalf("unexpected error: %v", err)
			}
			gotFault = true
			break
		}
	}
	if !gotFault {
		t.Fatal("fault never surfaced")
	}
	// Everything flushed before the fault is intact.
	for i := 0; i < flushedRows; i++ {
		row, err := tbl.Get(RowID(i))
		if err != nil {
			t.Fatalf("Get(%d) after fault: %v", i, err)
		}
		if row[0] != IntVal(int64(i)) {
			t.Errorf("row %d corrupted: %v", i, row)
		}
	}
}

// A fold hit by a write fault at any of its page programs — in the
// tail's sort, in the merge with the old tree, in the new tree's build —
// must leave the index answering exactly as before and free every block
// it wrote; the retry then succeeds. Swept over the first fold (no tree
// yet) and over a second one that merges a tree with a flushed tail.
func TestReorganizeSurvivesWriteFault(t *testing.T) {
	alloc := bigAlloc()
	tbl, ix, _ := loadCustomer(t, alloc, 2000, 101)
	ix.Flush()
	chip := alloc.Chip()

	// answers renders what the index returns for the rare key, a common
	// one, and a range, after checking each against a table scan.
	answers := func(stage string, after int) string {
		t.Helper()
		var out []string
		for _, city := range []string{"Lyon", "city005"} {
			got, _, err := ix.Lookup(StrVal(city))
			if err != nil {
				t.Fatalf("%s, fault after %d: lookup %s: %v", stage, after, city, err)
			}
			want, err := tbl.ScanFilter("city", StrVal(city))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, fault after %d: lookup %s = %d rids, scan %d", stage, after, city, len(got), len(want))
			}
			out = append(out, fmt.Sprint(got))
		}
		rng, _, err := ix.LookupRange(StrVal("city010"), StrVal("city020"))
		if err != nil {
			t.Fatalf("%s, fault after %d: range: %v", stage, after, err)
		}
		return strings.Join(append(out, fmt.Sprint(rng)), "|")
	}
	foldUnderFaults := func(stage string) {
		before, inUse := answers(stage, -1), alloc.InUse()
		for after := 0; ; after++ {
			chip.InjectWriteFault(after)
			err := ix.Reorganize(2, 4)
			if err == nil {
				break // the fault point lies beyond this fold: sweep done
			}
			if !errors.Is(err, flash.ErrInjectedFault) {
				t.Fatalf("%s, fault after %d: %v", stage, after, err)
			}
			if got := answers(stage, after); got != before {
				t.Fatalf("%s, fault after %d: answers moved", stage, after)
			}
			if n := alloc.InUse(); n != inUse {
				t.Fatalf("%s, fault after %d: %d blocks in use, %d before the fold", stage, after, n, inUse)
			}
		}
		chip.InjectWriteFault(-1)
		if ix.Tree() == nil || ix.KeysPages() != 0 {
			t.Fatalf("%s: the fold did not land", stage)
		}
		if got := answers(stage, -1); got != before {
			t.Fatalf("%s: the fold moved the answers", stage)
		}
	}
	foldUnderFaults("first fold")

	pad := StrVal(string(make([]byte, 100)))
	for i := 2000; i < 2600; i++ {
		city := fmt.Sprintf("city%03d", i%97)
		if i%101 == 0 {
			city = "Lyon"
		}
		rid, err := tbl.Insert(Row{IntVal(int64(i)), StrVal(city), pad})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(StrVal(city), rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	foldUnderFaults("second fold")
}

func TestSortSurvivesEraseFault(t *testing.T) {
	alloc := bigAlloc()
	l := logstore.NewLog(alloc)
	for i := 0; i < 2000; i++ {
		l.Append([]byte(fmt.Sprintf("%05d", 2000-i)))
	}
	l.Flush()
	// Run deallocation during the merge passes hits the erase fault.
	alloc.Chip().InjectEraseFault(0)
	less := func(a, b []byte) bool { return string(a) < string(b) }
	if _, err := logstore.Sort(l, less, 1, 2); !errors.Is(err, flash.ErrInjectedFault) {
		t.Fatalf("sort err = %v, want injected fault", err)
	}
	// Source log unharmed; retry succeeds.
	out, err := logstore.Sort(l, less, 1, 2)
	if err != nil {
		t.Fatalf("retry sort: %v", err)
	}
	if out.Len() != 2000 {
		t.Errorf("retry sorted %d records", out.Len())
	}
}
