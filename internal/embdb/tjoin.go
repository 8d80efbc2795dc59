package embdb

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pds/internal/logstore"
)

// ForeignKey declares that an Int column of a child table holds the RowID
// of a tuple in a parent table — the rowid-based linkage the tutorial's
// generalized join index builds on.
type ForeignKey struct {
	ChildTable string
	ChildCol   string
	Parent     string
}

// JoinIndex is the Tjoin (generalized join index) of a query-root table:
// for each rowid of the root table it stores the rowids of the tuples the
// root tuple transitively refers to in the schema subtree, in a fixed
// table order. Entries are fixed width, appended at root-tuple insertion,
// and fetched with one page read per probe — which is what lets the SPJ
// executor assemble join results in pipeline.
type JoinIndex struct {
	rootName string
	// dims lists the reachable tables in deterministic (BFS, then name)
	// order; entry i of a record is the rowid in dims[i].
	dims []string
	log  *logstore.Log
	rows int
	// pageFirstRow[p] = first root rowid recorded on logical page p.
	pageFirstRow []int32
}

// dimOrder computes the BFS closure of tables reachable from root via fks.
func dimOrder(root string, fks []ForeignKey, tables map[string]*Table) ([]string, error) {
	children := map[string][]ForeignKey{}
	for _, fk := range fks {
		children[fk.ChildTable] = append(children[fk.ChildTable], fk)
	}
	var dims []string
	seen := map[string]bool{root: true}
	frontier := []string{root}
	for len(frontier) > 0 {
		var next []string
		// Deterministic order within one BFS level.
		var level []ForeignKey
		for _, tname := range frontier {
			level = append(level, children[tname]...)
		}
		sort.Slice(level, func(i, j int) bool {
			if level[i].ChildTable != level[j].ChildTable {
				return level[i].ChildTable < level[j].ChildTable
			}
			return level[i].ChildCol < level[j].ChildCol
		})
		for _, fk := range level {
			if seen[fk.Parent] {
				return nil, fmt.Errorf("embdb: table %s reached twice from %s (schema must be a tree)", fk.Parent, root)
			}
			if _, ok := tables[fk.Parent]; !ok {
				return nil, fmt.Errorf("embdb: foreign key to unknown table %s", fk.Parent)
			}
			seen[fk.Parent] = true
			dims = append(dims, fk.Parent)
			next = append(next, fk.Parent)
		}
		frontier = next
	}
	return dims, nil
}

// Dims returns the dimension table order of the index.
func (ji *JoinIndex) Dims() []string { return ji.dims }

// Len returns the number of root tuples covered.
func (ji *JoinIndex) Len() int { return ji.rows }

// Pages returns the flushed page count.
func (ji *JoinIndex) Pages() int { return ji.log.Pages() }

// add appends the dim rowids for the next root rowid. dimRids must align
// with Dims().
func (ji *JoinIndex) add(dimRids []RowID) error {
	if len(dimRids) != len(ji.dims) {
		return fmt.Errorf("embdb: tjoin record has %d rids, want %d", len(dimRids), len(ji.dims))
	}
	rec := make([]byte, 4*len(dimRids))
	for i, r := range dimRids {
		binary.LittleEndian.PutUint32(rec[4*i:], uint32(r))
	}
	id, err := ji.log.Append(rec)
	if err != nil {
		return err
	}
	if int(id.Page) == len(ji.pageFirstRow) {
		ji.pageFirstRow = append(ji.pageFirstRow, int32(ji.rows))
	}
	ji.rows++
	return nil
}

// get appends the dim rowids for a root rowid to dst, decoding the record
// where it lies in h, a page of RAM the caller holds: one page read, none
// if h already holds the record's page.
func (ji *JoinIndex) get(root RowID, dst []RowID, h *logstore.HeldPage) ([]RowID, error) {
	if int(root) >= ji.rows {
		return nil, fmt.Errorf("%w: tjoin probe %d of %d", ErrNoSuchRow, root, ji.rows)
	}
	p := sort.Search(len(ji.pageFirstRow), func(i int) bool {
		return ji.pageFirstRow[i] > int32(root)
	}) - 1
	rec, err := ji.log.ViewHeld(logstore.RecordID{
		Page: int32(p),
		Slot: int32(root) - ji.pageFirstRow[p],
	}, h)
	if err != nil {
		return nil, err
	}
	if len(rec) != 4*len(ji.dims) {
		return nil, fmt.Errorf("embdb: corrupt tjoin record (%d bytes)", len(rec))
	}
	for i := range ji.dims {
		dst = append(dst, RowID(binary.LittleEndian.Uint32(rec[4*i:])))
	}
	return dst, nil
}

// Flush persists buffered entries.
func (ji *JoinIndex) Flush() error { return ji.log.Flush() }
