package embdb

import (
	"errors"
	"testing"
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
