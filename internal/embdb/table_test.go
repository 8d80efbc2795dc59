package embdb

import (
	"errors"
	"fmt"
	"testing"

	"pds/internal/flash"
)

func bigAlloc() *flash.Allocator {
	return flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 4096}))
}

func personSchema() Schema {
	return NewSchema(Column{"id", Int}, Column{"city", Str})
}

func TestTableInsertGet(t *testing.T) {
	tbl := NewTable(bigAlloc(), "people", personSchema())
	for i := 0; i < 1000; i++ {
		rid, err := tbl.Insert(Row{IntVal(int64(i)), StrVal(fmt.Sprintf("city%d", i%10))})
		if err != nil {
			t.Fatal(err)
		}
		if rid != RowID(i) {
			t.Fatalf("rid %d, want %d", rid, i)
		}
	}
	if tbl.Len() != 1000 {
		t.Errorf("Len = %d", tbl.Len())
	}
	// Random access across flushed and buffered pages.
	for _, i := range []int{0, 1, 499, 998, 999} {
		row, err := tbl.Get(RowID(i))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if row[0] != IntVal(int64(i)) || row[1] != StrVal(fmt.Sprintf("city%d", i%10)) {
			t.Errorf("Get(%d) = %v", i, row)
		}
	}
	if _, err := tbl.Get(1000); !errors.Is(err, ErrNoSuchRow) {
		t.Errorf("Get OOB err = %v", err)
	}
}

func TestTableScanOrder(t *testing.T) {
	tbl := NewTable(bigAlloc(), "t", personSchema())
	n := 300
	for i := 0; i < n; i++ {
		tbl.Insert(Row{IntVal(int64(i)), StrVal("x")})
	}
	it := tbl.Scan()
	i := 0
	for {
		row, rid, ok := it.Next()
		if !ok {
			break
		}
		if rid != RowID(i) || row[0] != IntVal(int64(i)) {
			t.Fatalf("scan pos %d: rid=%d row=%v", i, rid, row)
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != n {
		t.Errorf("scanned %d, want %d", i, n)
	}
}

func TestTableGetCostsOnePageRead(t *testing.T) {
	alloc := bigAlloc()
	tbl := NewTable(alloc, "t", personSchema())
	for i := 0; i < 500; i++ {
		tbl.Insert(Row{IntVal(int64(i)), StrVal("somecity")})
	}
	tbl.Flush()
	alloc.Chip().ResetStats()
	if _, err := tbl.Get(250); err != nil {
		t.Fatal(err)
	}
	if r := alloc.Chip().Stats().PageReads; r != 1 {
		t.Errorf("Get cost %d page reads, want 1", r)
	}
}

func TestScanFilter(t *testing.T) {
	tbl := NewTable(bigAlloc(), "t", personSchema())
	var want []RowID
	for i := 0; i < 400; i++ {
		city := "Paris"
		if i%7 == 0 {
			city = "Lyon"
			want = append(want, RowID(i))
		}
		tbl.Insert(Row{IntVal(int64(i)), StrVal(city)})
	}
	got, err := tbl.ScanFilter("city", StrVal("Lyon"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("match %d = %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := tbl.ScanFilter("nope", StrVal("x")); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad column err = %v", err)
	}
}

func TestTableInsertBadRow(t *testing.T) {
	tbl := NewTable(bigAlloc(), "t", personSchema())
	if _, err := tbl.Insert(Row{IntVal(1)}); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("bad row err = %v", err)
	}
	if tbl.Len() != 0 {
		t.Error("failed insert bumped Len")
	}
}
