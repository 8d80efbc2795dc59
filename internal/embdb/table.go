package embdb

import (
	"fmt"
	"sort"

	"pds/internal/flash"
	"pds/internal/logstore"
)

// RowID numbers the tuples of one table in insertion order, starting at 0.
// The Tselect/Tjoin machinery relies on rowids being monotonically
// increasing, which holds because tables are append-only logs.
type RowID uint32

// Table stores tuples of one relation in an append-only log. The only RAM
// resident metadata is one int32 per flash page (the rowid of the first
// record on that page), which supports direct row addressing.
type Table struct {
	name   string
	schema Schema
	log    *logstore.Log
	rows   int
	// pageFirstRow[p] = rowid of the first record stored on logical page p.
	pageFirstRow []int32
}

// NewTable creates an empty table drawing flash blocks from alloc.
func NewTable(alloc *flash.Allocator, name string, schema Schema) *Table {
	return &Table{name: name, schema: schema, log: logstore.NewLog(alloc)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of tuples.
func (t *Table) Len() int { return t.rows }

// Pages returns the number of flash pages holding flushed tuples.
func (t *Table) Pages() int { return t.log.Pages() }

// Insert appends a tuple and returns its rowid.
func (t *Table) Insert(r Row) (RowID, error) {
	data, err := encodeRow(t.schema, r)
	if err != nil {
		return 0, fmt.Errorf("table %s: %w", t.name, err)
	}
	id, err := t.log.Append(data)
	if err != nil {
		return 0, fmt.Errorf("table %s: %w", t.name, err)
	}
	if int(id.Page) == len(t.pageFirstRow) {
		t.pageFirstRow = append(t.pageFirstRow, int32(t.rows))
	}
	rid := RowID(t.rows)
	t.rows++
	return rid, nil
}

// recordID maps a rowid to its log coordinates.
func (t *Table) recordID(rid RowID) (logstore.RecordID, error) {
	if int(rid) >= t.rows {
		return logstore.RecordID{}, fmt.Errorf("%w: %d of %d in %s", ErrNoSuchRow, rid, t.rows, t.name)
	}
	// Find the last page whose first row is <= rid.
	p := sort.Search(len(t.pageFirstRow), func(i int) bool {
		return t.pageFirstRow[i] > int32(rid)
	}) - 1
	return logstore.RecordID{
		Page: int32(p),
		Slot: int32(rid) - t.pageFirstRow[p],
	}, nil
}

// view reads one tuple's encoding where it lies in h, a page of RAM the
// caller holds: one page read, none if h already holds the tuple's page.
// Valid until h reads another page.
func (t *Table) view(rid RowID, h *logstore.HeldPage) ([]byte, error) {
	id, err := t.recordID(rid)
	if err != nil {
		return nil, err
	}
	return t.log.ViewHeld(id, h)
}

// Get fetches one tuple by rowid (costing at most one page read).
func (t *Table) Get(rid RowID) (Row, error) {
	var h logstore.HeldPage
	defer h.Release()
	data, err := t.view(rid, &h)
	if err != nil {
		return nil, err
	}
	return decodeRow(t.schema, data)
}

// Flush persists buffered tuples.
func (t *Table) Flush() error { return t.log.Flush() }

// Drop frees the table's flash blocks.
func (t *Table) Drop() error { return t.log.Drop() }

// Chip exposes the chip for I/O accounting.
func (t *Table) Chip() *flash.Chip { return t.log.Chip() }

// Alloc exposes the allocator for sibling structures (indexes).
func (t *Table) Alloc() *flash.Allocator { return t.log.Alloc() }

// TableIterator streams the tuples of a table, one page of RAM at a time.
type TableIterator struct {
	t   *Table
	it  *logstore.Iterator
	rid RowID
	err error
}

// Scan returns an iterator over all tuples in rowid order.
func (t *Table) Scan() *TableIterator {
	return &TableIterator{t: t, it: t.log.Iter()}
}

// Next returns the next tuple and its rowid; ok=false at end or error.
func (ti *TableIterator) Next() (Row, RowID, bool) {
	if ti.err != nil {
		return nil, 0, false
	}
	rec, _, ok := ti.it.Next()
	if !ok {
		ti.err = ti.it.Err()
		return nil, 0, false
	}
	row, err := decodeRow(ti.t.schema, rec)
	if err != nil {
		ti.err = err
		return nil, 0, false
	}
	rid := ti.rid
	ti.rid++
	return row, rid, true
}

// Err returns the first error the iterator hit.
func (ti *TableIterator) Err() error { return ti.err }

// ScanFilter performs a full table scan returning the rowids whose column
// col equals val — the expensive baseline the summary scan beats.
func (t *Table) ScanFilter(col string, val Value) ([]RowID, error) {
	ci := t.schema.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.name, col)
	}
	want := Key(val)
	var out []RowID
	it := t.Scan()
	for {
		row, rid, ok := it.Next()
		if !ok {
			break
		}
		if string(Key(row[ci])) == string(want) {
			out = append(out, rid)
		}
	}
	return out, it.Err()
}
