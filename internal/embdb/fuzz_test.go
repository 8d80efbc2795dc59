package embdb

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"pds/internal/flash"
)

func FuzzDecodeRow(f *testing.F) {
	s := NewSchema(Column{"a", Int}, Column{"b", Str})
	good, _ := encodeRow(s, Row{IntVal(7), StrVal("hello")})
	f.Add(good)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := decodeRow(s, data)
		if err == nil {
			re, err2 := encodeRow(s, row)
			if err2 != nil {
				t.Fatalf("re-encode failed: %v", err2)
			}
			if string(re) != string(data) {
				t.Fatalf("round trip not canonical")
			}
		}
	})
}

func FuzzDecodeEntry(f *testing.F) {
	f.Add(encodeEntry([]byte("key"), 42))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(data)
		if err == nil {
			_ = e.rid
		}
	})
}

func FuzzDecodeNodePage(f *testing.F) {
	page := appendNodeEntry(make([]byte, nodePageHeader), nodeEntry{key: []byte("k"), ptr: 1})
	putU16(page[0:2], 1)
	f.Add(page)
	f.Add([]byte{9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeNodePage(data)
	})
}

// FuzzDecodeColMatchesDecodeRow holds the projection decode to decodeRow:
// on every input and for every column it returns decodeRow(...)[i], or
// both fail with ErrCorruptRow.
func FuzzDecodeColMatchesDecodeRow(f *testing.F) {
	s := NewSchema(Column{"a", Int}, Column{"b", Str}, Column{"c", Str}, Column{"d", Int})
	good, _ := encodeRow(s, Row{IntVal(-7), StrVal("hello"), StrVal(""), IntVal(1 << 40)})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(append(good[:len(good):len(good)], 0))
	f.Add(good[:9])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeRow(s, data)
		// Every column alone, then all of them at once, twice over.
		var projs [][]projCol
		var all []projCol
		for ci := range s.Cols {
			projs = append(projs, []projCol{{step: 1, colIdx: ci}})
			all = append(all, projCol{step: 1, colIdx: ci}, projCol{step: 0, colIdx: ci}, projCol{step: 1, colIdx: ci})
		}
		for _, proj := range append(projs, all) {
			out := make(Row, len(proj))
			err := decodeCols(s, data, proj, 1, out)
			if (err == nil) != (wantErr == nil) || errors.Is(err, ErrCorruptRow) != errors.Is(wantErr, ErrCorruptRow) {
				t.Fatalf("decodeCols err = %v, decodeRow err = %v", err, wantErr)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("decodeCols err = %q, decodeRow err = %q", err, wantErr)
				}
				continue
			}
			for i, p := range proj {
				switch {
				case p.step != 1 && out[i] != nil:
					t.Fatalf("slot %d belongs to another fetch step, got %v", i, out[i])
				case p.step == 1 && out[i] != want[p.colIdx]:
					t.Fatalf("column %d = %v, decodeRow says %v", p.colIdx, out[i], want[p.colIdx])
				}
			}
		}
	})
}

// FuzzHybridLookup drives one index through a random interleaving of
// inserts, flushes, folds, and folds hit by a write fault, and holds
// Lookup and LookupRange to a scan of the table — same rowids, ascending —
// before and after every fold: tree, tail, or both.
func FuzzHybridLookup(f *testing.F) {
	f.Add([]byte{0x1c, 0x1c, 0x02, 0x1c, 0x01, 0x1c, 0x03, 0x1c, 0x06})
	f.Add(bytes.Repeat([]byte{0x1c, 0x0c, 0x1c, 0x1c, 0x01, 0x1c, 0x0a, 0x0f, 0x1c, 0x07}, 20))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 300 {
			script = script[:300]
		}
		// Small pages: a few dozen postings make a multi-level tree.
		alloc := flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: 128, PagesPerBlock: 4, Blocks: 4096}))
		tbl := NewTable(alloc, "t", NewSchema(Column{"v", Int}))
		ix, err := NewSelectIndex(tbl, "v")
		if err != nil {
			t.Fatal(err)
		}
		const domain = 13
		check := func(stage string) {
			t.Helper()
			var vals []int64
			it := tbl.Scan()
			for {
				row, _, ok := it.Next()
				if !ok {
					break
				}
				vals = append(vals, int64(row[0].(IntVal)))
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			scan := func(lo, hi int64) []RowID {
				var out []RowID
				for rid, v := range vals {
					if lo <= v && v <= hi {
						out = append(out, RowID(rid))
					}
				}
				return out
			}
			for v := int64(-1); v <= domain; v++ {
				got, _, err := ix.Lookup(IntVal(v))
				if want := scan(v, v); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: Lookup(%d) = %v, %v; scan %v", stage, v, got, err, want)
				}
			}
			for _, r := range [][2]int64{{0, domain}, {3, 8}, {5, 5}, {9, 2}, {-7, 4}, {11, 99}} {
				got, _, err := ix.LookupRange(IntVal(r[0]), IntVal(r[1]))
				if want := scan(r[0], r[1]); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: LookupRange(%d, %d) = %v, %v; scan %v", stage, r[0], r[1], got, err, want)
				}
			}
		}
		for i, op := range script {
			arg := int(op >> 2)
			switch op % 4 {
			case 0: // insert 1..8 tuples
				for k := 0; k <= arg%8; k++ {
					v := IntVal(int64((arg + 7*k + i) % domain))
					rid, err := tbl.Insert(Row{v})
					if err != nil {
						t.Fatal(err)
					}
					if err := ix.Add(v, rid); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				if err := ix.Flush(); err != nil {
					t.Fatal(err)
				}
			case 2:
				check("before fold")
				if err := ix.Reorganize(1+arg%3, 2+arg/3%3); err != nil {
					t.Fatal(err)
				}
				check("after fold")
			case 3:
				if err := ix.Flush(); err != nil {
					t.Fatal(err)
				}
				check("before faulty fold")
				inUse := alloc.InUse()
				alloc.Chip().InjectWriteFault(arg)
				err := ix.Reorganize(1, 2)
				alloc.Chip().InjectWriteFault(-1)
				if err != nil {
					if !errors.Is(err, flash.ErrInjectedFault) {
						t.Fatal(err)
					}
					if n := alloc.InUse(); n != inUse {
						t.Fatalf("failed fold: %d blocks in use, %d before", n, inUse)
					}
				}
				check("after faulty fold")
			}
		}
		check("end")
	})
}
