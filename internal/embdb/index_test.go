package embdb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pds/internal/flash"
	"pds/internal/logstore"
)

// loadCustomer builds a CUSTOMER-like table (wide rows, as in TPC-D) with
// an indexed city column; rare city "Lyon" appears once every period rows.
func loadCustomer(t *testing.T, alloc *flash.Allocator, n, period int) (*Table, *SelectIndex, []RowID) {
	t.Helper()
	schema := NewSchema(Column{"id", Int}, Column{"city", Str}, Column{"payload", Str})
	tbl := NewTable(alloc, "CUSTOMER", schema)
	ix, err := NewSelectIndex(tbl, "city")
	if err != nil {
		t.Fatal(err)
	}
	pad := StrVal(string(make([]byte, 100))) // address/comment fields
	var want []RowID
	for i := 0; i < n; i++ {
		city := fmt.Sprintf("city%03d", i%97)
		if period > 0 && i%period == 0 {
			city = "Lyon"
			want = append(want, RowID(i))
		}
		rid, err := tbl.Insert(Row{IntVal(int64(i)), StrVal(city), pad})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(StrVal(city), rid); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, ix, want
}

func TestSelectIndexLookup(t *testing.T) {
	alloc := bigAlloc()
	_, ix, want := loadCustomer(t, alloc, 2000, 101)
	got, st, err := ix.Lookup(StrVal("Lyon"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matches = %d, want %d (stats %+v)", len(got), len(want), st)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("match %d = %d, want %d (order must be ascending rowid)", i, got[i], want[i])
		}
	}
	if st.Matches != len(want) {
		t.Errorf("stats.Matches = %d", st.Matches)
	}
}

func TestSelectIndexFindsBufferedEntries(t *testing.T) {
	alloc := bigAlloc()
	tbl := NewTable(alloc, "t", personSchema())
	ix, _ := NewSelectIndex(tbl, "city")
	rid, _ := tbl.Insert(Row{IntVal(1), StrVal("Nice")})
	ix.Add(StrVal("Nice"), rid)
	// No flush: posting only in RAM.
	got, _, err := ix.Lookup(StrVal("Nice"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != rid {
		t.Errorf("buffered lookup = %v", got)
	}
}

func TestSelectIndexMissingKey(t *testing.T) {
	alloc := bigAlloc()
	_, ix, _ := loadCustomer(t, alloc, 500, 0)
	got, st, err := ix.Lookup(StrVal("Atlantis"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("missing key matched %v", got)
	}
	// Bloom summaries should keep false reads very low.
	if st.KeyPagesRead > ix.KeysPages()/10+1 {
		t.Errorf("missing key read %d of %d key pages", st.KeyPagesRead, ix.KeysPages())
	}
}

func TestSummaryScanBeatsTableScan(t *testing.T) {
	// The paper's headline E1 comparison: the summary scan touches the
	// small Bloom log plus a few key pages; the table scan reads the
	// whole table.
	alloc := bigAlloc()
	tbl, ix, _ := loadCustomer(t, alloc, 4000, 211)
	tbl.Flush()
	ix.Flush()
	chip := alloc.Chip()

	chip.ResetStats()
	idxRids, _, err := ix.Lookup(StrVal("Lyon"))
	if err != nil {
		t.Fatal(err)
	}
	idxIO := chip.Stats().PageReads

	chip.ResetStats()
	scanRids, err := tbl.ScanFilter("city", StrVal("Lyon"))
	if err != nil {
		t.Fatal(err)
	}
	scanIO := chip.Stats().PageReads

	if len(idxRids) != len(scanRids) {
		t.Fatalf("index %d matches, scan %d", len(idxRids), len(scanRids))
	}
	if idxIO*5 > scanIO {
		t.Errorf("summary scan %d IOs vs table scan %d IOs; want >=5x saving", idxIO, scanIO)
	}
}

func TestSelectIndexNoSuchColumn(t *testing.T) {
	tbl := NewTable(bigAlloc(), "t", personSchema())
	if _, err := NewSelectIndex(tbl, "ghost"); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("err = %v", err)
	}
}

func TestSelectIndexDrop(t *testing.T) {
	alloc := bigAlloc()
	tbl, ix, _ := loadCustomer(t, alloc, 1000, 10)
	tbl.Flush()
	ix.Flush()
	before := alloc.InUse()
	if err := ix.Drop(); err != nil {
		t.Fatal(err)
	}
	if alloc.InUse() >= before {
		t.Error("drop freed nothing")
	}
}

func TestReorganizeLookup(t *testing.T) {
	alloc := bigAlloc()
	_, ix, want := loadCustomer(t, alloc, 3000, 97)
	if err := ix.Reorganize(2, 4); err != nil {
		t.Fatal(err)
	}
	if tree := ix.Tree(); tree == nil || tree.Len() != ix.Len() {
		t.Fatalf("tree = %v after folding %d postings", tree, ix.Len())
	}
	if ix.KeysPages() != 0 || ix.SummaryPages() != 0 {
		t.Errorf("tail keeps %d Keys and %d summary pages after the fold", ix.KeysPages(), ix.SummaryPages())
	}
	got, st, err := ix.Lookup(StrVal("Lyon"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("tree matches = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("tree match %d = %d, want %d", i, got[i], want[i])
		}
	}
	if st.TreePages == 0 || st.SummaryPages != 0 || st.KeyPagesRead != 0 {
		t.Errorf("lookup stats %+v: want tree pages only", st)
	}
	// Missing key, and a key beyond the maximum.
	for _, v := range []Value{StrVal("Atlantis"), StrVal("zzzz")} {
		if none, _, err := ix.Lookup(v); err != nil || len(none) != 0 {
			t.Errorf("lookup %v = %v, %v", v, none, err)
		}
	}
}

func TestReorganizeIOCheaperThanSequential(t *testing.T) {
	alloc := bigAlloc()
	_, ix, _ := loadCustomer(t, alloc, 6000, 503)
	chip := alloc.Chip()

	chip.ResetStats()
	if _, _, err := ix.Lookup(StrVal("Lyon")); err != nil {
		t.Fatal(err)
	}
	seqIO := chip.Stats().PageReads

	if err := ix.Reorganize(2, 4); err != nil {
		t.Fatal(err)
	}
	chip.ResetStats()
	if _, _, err := ix.Lookup(StrVal("Lyon")); err != nil {
		t.Fatal(err)
	}
	treeIO := chip.Stats().PageReads

	if treeIO >= seqIO {
		t.Errorf("tree lookup %d IOs, sequential %d IOs; reorganization should win", treeIO, seqIO)
	}
	if h := ix.Tree().Height(); treeIO > int64(h+3) {
		t.Errorf("tree lookup cost %d IOs, want ~height (%d)", treeIO, h)
	}
}

func TestReorganizeUsesOnlySequentialWrites(t *testing.T) {
	// The reorganization itself must respect the log-only discipline: no
	// page overwrites (the chip would error) and no erases beyond the
	// temp-run deallocation.
	alloc := bigAlloc()
	_, ix, _ := loadCustomer(t, alloc, 3000, 100)
	ix.Flush()
	if err := ix.Reorganize(1, 2); err != nil {
		t.Fatalf("reorganize violated flash discipline: %v", err)
	}
}

// buildTreeOf builds a tree straight from entries already in key order.
func buildTreeOf(t *testing.T, alloc *flash.Allocator, entries []keyEntry) *TreeIndex {
	t.Helper()
	tree, err := buildTree(alloc, func() (keyEntry, bool, error) {
		if len(entries) == 0 {
			return keyEntry{}, false, nil
		}
		e := entries[0]
		entries = entries[1:]
		return e, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// treeLookup returns the rowids of tree's entries with exactly key.
func treeLookup(t *testing.T, tree *TreeIndex, key []byte) []RowID {
	t.Helper()
	buf := tree.levels[0].PageBuf()
	defer logstore.PutPageBuf(buf)
	got, _, err := tree.appendRange(nil, key, key, *buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTreeEmpty(t *testing.T) {
	tree := buildTreeOf(t, bigAlloc(), nil)
	if got := treeLookup(t, tree, []byte("x")); len(got) != 0 {
		t.Errorf("empty tree lookup = %v", got)
	}
	if tree.Height() != 1 {
		t.Errorf("empty tree height = %d", tree.Height())
	}
}

func TestTreeSingleEntry(t *testing.T) {
	tree := buildTreeOf(t, bigAlloc(), []keyEntry{{key: []byte("solo"), rid: 7}})
	if got := treeLookup(t, tree, []byte("solo")); len(got) != 1 || got[0] != 7 {
		t.Errorf("single entry lookup = %v", got)
	}
}

func TestTreeHeightGrows(t *testing.T) {
	alloc := flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: 64, PagesPerBlock: 8, Blocks: 4096}))
	entries := make([]keyEntry, 2000)
	for i := range entries {
		entries[i] = keyEntry{key: []byte(fmt.Sprintf("%06d", i)), rid: RowID(i)}
	}
	tree := buildTreeOf(t, alloc, entries)
	if tree.Height() < 3 {
		t.Errorf("height = %d, want >= 3 with tiny pages", tree.Height())
	}
	for _, probe := range []int{0, 1, 999, 1998, 1999} {
		if got := treeLookup(t, tree, []byte(fmt.Sprintf("%06d", probe))); len(got) != 1 || got[0] != RowID(probe) {
			t.Errorf("probe %d = %v", probe, got)
		}
	}
}

func TestTreeRange(t *testing.T) {
	tbl := NewTable(bigAlloc(), "t", NewSchema(Column{"v", Int}))
	ix, err := NewSelectIndex(tbl, "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		rid, err := tbl.Insert(Row{IntVal(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(IntVal(int64(i)), rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Reorganize(2, 4); err != nil {
		t.Fatal(err)
	}
	got, st, err := ix.LookupRange(IntVal(100), IntVal(199))
	if err != nil {
		t.Fatal(err)
	}
	if st.TreePages == 0 || st.KeyPagesRead != 0 {
		t.Errorf("range read %d tree pages, %d tail pages; want the tree alone", st.TreePages, st.KeyPagesRead)
	}
	if len(got) != 100 {
		t.Fatalf("range yielded %d, want 100", len(got))
	}
	for n, rid := range got {
		if rid != RowID(100+n) {
			t.Errorf("range rid %d, want %d", rid, 100+n)
		}
	}
	// Inverted range is empty.
	if inv, _, err := ix.LookupRange(IntVal(10), IntVal(5)); err != nil || len(inv) != 0 {
		t.Errorf("inverted range = %v, %v", inv, err)
	}
}

// Property: for random data sets, lookups through the tree agree with the
// sequential index they were folded from, for every present and absent key.
func TestQuickTreeAgreesWithSequential(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		n := int(size)%800 + 1
		rng := rand.New(rand.NewSource(seed))
		alloc := bigAlloc()
		tbl := NewTable(alloc, "t", NewSchema(Column{"v", Int}))
		ix, err := NewSelectIndex(tbl, "v")
		if err != nil {
			return false
		}
		domain := int64(50)
		for i := 0; i < n; i++ {
			v := IntVal(rng.Int63n(domain))
			rid, err := tbl.Insert(Row{v})
			if err != nil {
				return false
			}
			if err := ix.Add(v, rid); err != nil {
				return false
			}
		}
		var seq [][]RowID
		for v := int64(-1); v <= domain; v++ {
			a, _, err := ix.Lookup(IntVal(v))
			if err != nil {
				return false
			}
			seq = append(seq, a)
		}
		if err := ix.Reorganize(1, 2); err != nil {
			return false
		}
		for i, v := 0, int64(-1); v <= domain; i, v = i+1, v+1 {
			b, _, err := ix.Lookup(IntVal(v))
			if err != nil || !slices.Equal(seq[i], b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
