package embdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestInPlaceIndexCorrectness(t *testing.T) {
	alloc := bigAlloc()
	x := NewInPlaceIndex(alloc)
	rng := rand.New(rand.NewSource(1))
	want := map[int64][]RowID{}
	for i := 0; i < 800; i++ {
		v := rng.Int63n(50)
		key := Key(IntVal(v))
		if err := x.Insert(key, RowID(i)); err != nil {
			t.Fatal(err)
		}
		want[v] = append(want[v], RowID(i))
	}
	if x.entries != 800 {
		t.Errorf("Len = %d", x.entries)
	}
	for v := int64(0); v < 50; v++ {
		got, err := lookup(x, Key(IntVal(v)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[v]) {
			t.Errorf("v=%d: %d matches, want %d", v, len(got), len(want[v]))
		}
	}
	if got, _ := lookup(x, Key(IntVal(999))); len(got) != 0 {
		t.Errorf("missing key matched %v", got)
	}
}

func TestInPlaceIndexPaysErases(t *testing.T) {
	// The whole point of the baseline: updates in place force block
	// erase cycles, while the log-structured index never erases. A freed
	// block's erase is owed until the block is reused, and an Alloc of the
	// shared allocator may pay one structure's debt for another, so each
	// structure is charged what it owes: erases plus newly dirty blocks.
	alloc := bigAlloc()
	chip := alloc.Chip()
	owed := func() int64 { return chip.Stats().BlockErases + int64(alloc.Dirty()) }

	x := NewInPlaceIndex(alloc)
	chip.ResetStats()
	owed0 := owed()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		if err := x.Insert(Key(IntVal(rng.Int63n(1000))), RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	inPlace, inPlaceOwed := chip.Stats(), owed()-owed0

	tbl := NewTable(alloc, "t", NewSchema(Column{"v", Int}))
	ix, _ := NewSelectIndex(tbl, "v")
	chip.ResetStats()
	owed0 = owed()
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		if err := ix.Add(IntVal(rng.Int63n(1000)), RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix.Flush()
	logStructured, logStructuredOwed := chip.Stats(), owed()-owed0

	if inPlaceOwed < 400 {
		t.Errorf("in-place owed erases = %d; expected ~1 per insert", inPlaceOwed)
	}
	if logStructuredOwed != 0 {
		t.Errorf("log-structured owed erases = %d, want 0", logStructuredOwed)
	}
	if logStructured.PageWrites*10 > inPlace.PageWrites {
		t.Errorf("log writes %d vs in-place %d; want >=10x saving", logStructured.PageWrites, inPlace.PageWrites)
	}
}

func TestInPlaceIndexSortedOrderMaintained(t *testing.T) {
	alloc := bigAlloc()
	x := NewInPlaceIndex(alloc)
	// Insert descending to force insertions at the front (worst case).
	for i := 300; i > 0; i-- {
		if err := x.Insert([]byte(fmt.Sprintf("%05d", i)), RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Global order must hold across pages.
	var prev []byte
	for p := 0; p < x.pages; p++ {
		entries, err := x.readPage(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if prev != nil && string(e.key) < string(prev) {
				t.Fatalf("order violated: %q after %q", e.key, prev)
			}
			prev = append(prev[:0], e.key...)
		}
	}
}

// lookup reads the rowids matching key back out of the in-place index's
// pages: the oracle its correctness tests hold it to (the baseline itself
// only serves cost comparisons).
func lookup(x *InPlaceIndex, key []byte) ([]RowID, error) {
	var out []RowID
	for p := 0; p < x.pages; p++ {
		entries, err := x.readPage(p)
		if err != nil {
			return nil, err
		}
		if len(entries) == 0 {
			continue
		}
		if bytes.Compare(entries[len(entries)-1].key, key) < 0 {
			continue
		}
		for _, e := range entries {
			c := bytes.Compare(e.key, key)
			if c == 0 {
				out = append(out, RowID(e.ptr))
			} else if c > 0 {
				return out, nil
			}
		}
	}
	return out, nil
}
