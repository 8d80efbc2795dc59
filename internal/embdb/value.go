// Package embdb implements the tutorial's embedded relational database for
// secure tokens (Part II, second illustration): tables and indexes are
// stored exclusively in sequential log structures on NAND flash, selections
// use per-page Bloom-filter summaries ("summary scan"), logs are
// reorganized in the background into B-tree-like structures using only
// further logs, and select-project-join queries over a star schema are
// evaluated in pipeline through Tselect and Tjoin (generalized join)
// indexes, so that RAM consumption stays within an MCU budget.
package embdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// ColType is the type of a column.
type ColType uint8

// Supported column types.
const (
	Int ColType = iota // 64-bit signed integer
	Str                // UTF-8 string up to 64 KiB
)

func (t ColType) String() string {
	switch t {
	case Int:
		return "int"
	case Str:
		return "str"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from name/type pairs.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value is a database value: either IntVal or StrVal.
type Value interface {
	fmt.Stringer
	isValue()
	// Encode appends the canonical byte encoding (also used as index key).
	Encode(dst []byte) []byte
}

// IntVal is a 64-bit integer value.
type IntVal int64

// StrVal is a string value.
type StrVal string

func (IntVal) isValue() {}
func (StrVal) isValue() {}

func (v IntVal) String() string { return strconv.FormatInt(int64(v), 10) }
func (v StrVal) String() string { return string(v) }

// Encode appends a fixed 8-byte big-endian two's-complement-shifted image,
// so that byte order equals numeric order (needed by range scans on the
// reorganized tree).
func (v IntVal) Encode(dst []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v)^(1<<63))
	return append(dst, b[:]...)
}

// Encode appends the raw string bytes (byte order = lexicographic order).
func (v StrVal) Encode(dst []byte) []byte { return append(dst, v...) }

// Key returns the canonical index-key encoding of a value.
func Key(v Value) []byte { return v.Encode(nil) }

// Row is one tuple, positionally matching a schema.
type Row []Value

// Errors returned by row encoding and table operations.
var (
	ErrSchemaMismatch = errors.New("embdb: row does not match schema")
	ErrCorruptRow     = errors.New("embdb: corrupt row encoding")
	ErrNoSuchRow      = errors.New("embdb: rowid out of range")
	ErrNoSuchColumn   = errors.New("embdb: no such column")
)

// encodeRow serializes a row: Int → 8 bytes LE; Str → u16 len + bytes.
func encodeRow(s Schema, r Row) ([]byte, error) {
	if len(r) != len(s.Cols) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrSchemaMismatch, len(r), len(s.Cols))
	}
	var out []byte
	for i, c := range s.Cols {
		switch c.Type {
		case Int:
			v, ok := r[i].(IntVal)
			if !ok {
				return nil, fmt.Errorf("%w: column %s wants int, got %T", ErrSchemaMismatch, c.Name, r[i])
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			out = append(out, b[:]...)
		case Str:
			v, ok := r[i].(StrVal)
			if !ok {
				return nil, fmt.Errorf("%w: column %s wants str, got %T", ErrSchemaMismatch, c.Name, r[i])
			}
			if len(v) > 0xFFFF {
				return nil, fmt.Errorf("%w: column %s string too long (%d)", ErrSchemaMismatch, c.Name, len(v))
			}
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], uint16(len(v)))
			out = append(out, b[:]...)
			out = append(out, v...)
		default:
			return nil, fmt.Errorf("%w: column %s has unknown type", ErrSchemaMismatch, c.Name)
		}
	}
	return out, nil
}

// decodeRow deserializes a row previously produced by encodeRow.
func decodeRow(s Schema, data []byte) (Row, error) {
	out := make(Row, 0, len(s.Cols))
	off := 0
	for _, c := range s.Cols {
		switch c.Type {
		case Int:
			if off+8 > len(data) {
				return nil, fmt.Errorf("%w: truncated int column %s", ErrCorruptRow, c.Name)
			}
			out = append(out, IntVal(int64(binary.LittleEndian.Uint64(data[off:off+8]))))
			off += 8
		case Str:
			if off+2 > len(data) {
				return nil, fmt.Errorf("%w: truncated str header %s", ErrCorruptRow, c.Name)
			}
			n := int(binary.LittleEndian.Uint16(data[off : off+2]))
			off += 2
			if off+n > len(data) {
				return nil, fmt.Errorf("%w: truncated str column %s", ErrCorruptRow, c.Name)
			}
			out = append(out, StrVal(data[off:off+n]))
			off += n
		default:
			return nil, fmt.Errorf("%w: unknown column type", ErrCorruptRow)
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, len(data)-off)
	}
	return out, nil
}

// decodeCols is decodeRow for a projection: it validates the whole
// encoding exactly as decodeRow does — every column inside data, nothing
// after the last — but boxes only the columns that proj asks of fetch step
// step, each into its slot of out. Strings are copied out of data.
func decodeCols(s Schema, data []byte, proj []projCol, step int, out Row) error {
	off := 0
	for ci, c := range s.Cols {
		start := off
		switch c.Type {
		case Int:
			if off+8 > len(data) {
				return fmt.Errorf("%w: truncated int column %s", ErrCorruptRow, c.Name)
			}
			off += 8
		case Str:
			if off+2 > len(data) {
				return fmt.Errorf("%w: truncated str header %s", ErrCorruptRow, c.Name)
			}
			start += 2
			off = start + int(binary.LittleEndian.Uint16(data[off:off+2]))
			if off > len(data) {
				return fmt.Errorf("%w: truncated str column %s", ErrCorruptRow, c.Name)
			}
		default:
			return fmt.Errorf("%w: unknown column type", ErrCorruptRow)
		}
		for i, p := range proj {
			if p.step != step || p.colIdx != ci {
				continue
			}
			if c.Type == Int {
				out[i] = IntVal(int64(binary.LittleEndian.Uint64(data[start:off])))
			} else {
				out[i] = StrVal(data[start:off])
			}
		}
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, len(data)-off)
	}
	return nil
}
