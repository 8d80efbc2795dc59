package embdb

import (
	"errors"
	"fmt"
	"sort"

	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/mcu"
	"pds/internal/obs"
)

// Metric families the query pipeline emits on an attached observer.
// Queries are labeled by path ("star" for the Tselect/Tjoin pipeline,
// "naive" for the index-free baseline).
const (
	MetricQueries           = "embdb_queries_total"
	MetricTselectCandidates = "embdb_tselect_candidates_total"
	MetricStarSurvivors     = "embdb_star_survivors_total"
	MetricTjoinProbes       = "embdb_tjoin_probes_total"
	MetricTuplesFetched     = "embdb_tuples_fetched_total"
	MetricRidRAMBytes       = "embdb_rid_ram_bytes"
	// MetricTselectListSize is a histogram of per-condition candidate-list
	// cardinalities — the selectivity distribution the Tselect design
	// exploits.
	MetricTselectListSize = "embdb_tselect_list_size"
)

// tselectListBounds buckets candidate-list sizes in powers of ten.
var tselectListBounds = []int64{1, 10, 100, 1000, 10000, 100000}

// DB is the embedded database of one secure token. It owns tables,
// selection indexes, foreign keys, and the Tselect/Tjoin star indexes, and
// it maintains all of them on insert so queries never see a stale index.
type DB struct {
	alloc *flash.Allocator
	arena *mcu.Arena

	tables  map[string]*Table
	indexes map[string]map[string]*SelectIndex // table → col → index
	// selects lists every selection and Tselect index in creation order,
	// the order Flush folds them in, so one load leaves one chip.
	selects []*SelectIndex
	fks     []ForeignKey
	fkCols  map[string]map[string]string // child table → col → parent table

	// Star indexes per root table.
	joins    map[string]*JoinIndex              // root → Tjoin
	tselects map[string]map[string]*SelectIndex // root → "dimTable.dimCol" → Tselect

	// obsv, when non-nil, receives query-pipeline metrics (operator
	// cardinalities, rid-buffer occupancy). DB is single-threaded by
	// design, so a plain field suffices.
	obsv *obs.Registry
}

// Errors specific to DB management.
var (
	ErrDupTable    = errors.New("embdb: table already exists")
	ErrNoSuchTable = errors.New("embdb: no such table")
	ErrNoIndex     = errors.New("embdb: no index on column")
	ErrFKViolation = errors.New("embdb: foreign key references missing row")
)

// NewDB creates an empty database on the given flash allocator and RAM
// arena.
func NewDB(alloc *flash.Allocator, arena *mcu.Arena) *DB {
	return &DB{
		alloc:    alloc,
		arena:    arena,
		tables:   map[string]*Table{},
		indexes:  map[string]map[string]*SelectIndex{},
		fkCols:   map[string]map[string]string{},
		joins:    map[string]*JoinIndex{},
		tselects: map[string]map[string]*SelectIndex{},
	}
}

// Arena returns the RAM arena queries draw from.
func (db *DB) Arena() *mcu.Arena { return db.arena }

// SetObserver attaches (or, with nil, detaches) a metrics registry; every
// subsequent query mirrors its pipeline cardinalities into it.
func (db *DB) SetObserver(reg *obs.Registry) { db.obsv = reg }

// count bumps an unlabeled counter when an observer is attached.
func (db *DB) count(family string, d int64) {
	if db.obsv != nil && d != 0 {
		db.obsv.Counter(family).Add(d)
	}
}

// Alloc returns the flash allocator.
func (db *DB) Alloc() *flash.Allocator { return db.alloc }

// CreateTable registers a new empty table.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDupTable, name)
	}
	t := NewTable(db.alloc, name, schema)
	db.tables[name] = t
	return t, nil
}

// Tables returns the sorted names of all tables.
func (db *DB) Tables() []string {
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Table returns a table by name.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// CreateIndex adds a selection index on table.col. Create indexes before
// loading data.
func (db *DB) CreateIndex(table, col string) (*SelectIndex, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	ix, err := NewSelectIndex(t, col)
	if err != nil {
		return nil, err
	}
	if db.indexes[table] == nil {
		db.indexes[table] = map[string]*SelectIndex{}
	}
	db.indexes[table][col] = ix
	db.selects = append(db.selects, ix)
	return ix, nil
}

// Index returns the selection index on table.col.
func (db *DB) Index(table, col string) (*SelectIndex, error) {
	ix, ok := db.indexes[table][col]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, table, col)
	}
	return ix, nil
}

// AddForeignKey declares child.col (an Int column holding parent rowids)
// as a foreign key. Declare all keys before creating star indexes.
func (db *DB) AddForeignKey(child, col, parent string) error {
	ct, err := db.Table(child)
	if err != nil {
		return err
	}
	if _, err := db.Table(parent); err != nil {
		return err
	}
	ci := ct.Schema().ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, child, col)
	}
	if ct.Schema().Cols[ci].Type != Int {
		return fmt.Errorf("embdb: foreign key column %s.%s must be int", child, col)
	}
	db.fks = append(db.fks, ForeignKey{ChildTable: child, ChildCol: col, Parent: parent})
	if db.fkCols[child] == nil {
		db.fkCols[child] = map[string]string{}
	}
	db.fkCols[child][col] = parent
	return nil
}

// CreateJoinIndex creates the Tjoin index rooted at root. Root tuples
// inserted afterwards are indexed automatically.
func (db *DB) CreateJoinIndex(root string) (*JoinIndex, error) {
	if _, err := db.Table(root); err != nil {
		return nil, err
	}
	if _, dup := db.joins[root]; dup {
		return nil, fmt.Errorf("embdb: join index on %s already exists", root)
	}
	dims, err := dimOrder(root, db.fks, db.tables)
	if err != nil {
		return nil, err
	}
	ji := &JoinIndex{rootName: root, dims: dims, log: logstore.NewLog(db.alloc)}
	db.joins[root] = ji
	return ji, nil
}

// CreateTselect creates a Tselect index for queries rooted at root and
// selecting on dimTable.dimCol: each key maps to the sorted rowids of the
// ROOT table whose join path reaches a dimension tuple with that key.
// dimTable may equal root for a selection on the root itself. Requires the
// Tjoin index on root to exist first.
func (db *DB) CreateTselect(root, dimTable, dimCol string) error {
	ji, ok := db.joins[root]
	if !ok {
		return fmt.Errorf("embdb: create the join index on %s before Tselect", root)
	}
	dt, err := db.Table(dimTable)
	if err != nil {
		return err
	}
	if dt.Schema().ColIndex(dimCol) < 0 {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, dimTable, dimCol)
	}
	if dimTable != root {
		found := false
		for _, d := range ji.dims {
			if d == dimTable {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("embdb: %s is not reachable from %s", dimTable, root)
		}
	}
	ix, err := NewSelectIndex(dt, dimCol)
	if err != nil {
		return err
	}
	if db.tselects[root] == nil {
		db.tselects[root] = map[string]*SelectIndex{}
	}
	db.tselects[root][dimTable+"."+dimCol] = ix
	db.selects = append(db.selects, ix)
	return nil
}

// Tselect returns the Tselect index for root on dimTable.dimCol.
func (db *DB) Tselect(root, dimTable, dimCol string) (*SelectIndex, error) {
	ix, ok := db.tselects[root][dimTable+"."+dimCol]
	if !ok {
		return nil, fmt.Errorf("%w: tselect %s on %s.%s", ErrNoIndex, root, dimTable, dimCol)
	}
	return ix, nil
}

// JoinIndexOf returns the Tjoin index of root.
func (db *DB) JoinIndexOf(root string) (*JoinIndex, error) {
	ji, ok := db.joins[root]
	if !ok {
		return nil, fmt.Errorf("%w: tjoin on %s", ErrNoIndex, root)
	}
	return ji, nil
}

// Insert appends a tuple, maintaining every index registered on the table:
// sequential selection indexes, the Tjoin of a root table, and the Tselect
// indexes of queries rooted here.
func (db *DB) Insert(table string, row Row) (RowID, error) {
	t, err := db.Table(table)
	if err != nil {
		return 0, err
	}
	// Validate foreign keys before any mutation.
	for col, parent := range db.fkCols[table] {
		ci := t.Schema().ColIndex(col)
		v, ok := row[ci].(IntVal)
		if !ok {
			return 0, fmt.Errorf("%w: %s.%s", ErrSchemaMismatch, table, col)
		}
		pt := db.tables[parent]
		if v < 0 || int(v) >= pt.Len() {
			return 0, fmt.Errorf("%w: %s.%s=%d, %s has %d rows", ErrFKViolation, table, col, v, parent, pt.Len())
		}
	}
	rid, err := t.Insert(row)
	if err != nil {
		return 0, err
	}
	for col, ix := range db.indexes[table] {
		ci := t.Schema().ColIndex(col)
		if err := ix.Add(row[ci], rid); err != nil {
			return 0, err
		}
	}
	if ji, ok := db.joins[table]; ok {
		dimRids, dimRows, err := db.walkFKs(table, row)
		if err != nil {
			return 0, err
		}
		aligned := make([]RowID, len(ji.dims))
		for i, d := range ji.dims {
			aligned[i] = dimRids[d]
		}
		if err := ji.add(aligned); err != nil {
			return 0, err
		}
		for key, ix := range db.tselects[table] {
			dimTable, dimCol := splitKey(key)
			var dimRow Row
			var dimT *Table
			if dimTable == table {
				dimRow, dimT = row, t
			} else {
				dimRow, dimT = dimRows[dimTable], db.tables[dimTable]
			}
			ci := dimT.Schema().ColIndex(dimCol)
			if err := ix.Add(dimRow[ci], rid); err != nil {
				return 0, err
			}
		}
	}
	return rid, nil
}

// walkFKs follows every foreign-key path from a (not yet inserted) tuple of
// table, returning rowids and rows per reached table.
func (db *DB) walkFKs(table string, row Row) (map[string]RowID, map[string]Row, error) {
	rids := map[string]RowID{}
	rows := map[string]Row{}
	var walk func(tname string, r Row) error
	walk = func(tname string, r Row) error {
		t := db.tables[tname]
		for col, parent := range db.fkCols[tname] {
			ci := t.Schema().ColIndex(col)
			prid := RowID(r[ci].(IntVal))
			pt := db.tables[parent]
			prow, err := pt.Get(prid)
			if err != nil {
				return fmt.Errorf("embdb: fk %s.%s: %w", tname, col, err)
			}
			rids[parent] = prid
			rows[parent] = prow
			if err := walk(parent, prow); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(table, row); err != nil {
		return nil, nil, err
	}
	return rids, rows, nil
}

func splitKey(k string) (string, string) {
	for i := 0; i < len(k); i++ {
		if k[i] == '.' {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}

// Flush persists every table and index, then folds each selection and
// Tselect index whose flushed tail has grown to its tree's size (see
// SelectIndex.Reorganize): the tree is built on the first flush and
// rebuilt each time the postings since have doubled it.
func (db *DB) Flush() error {
	for _, t := range db.tables {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	for _, ji := range db.joins {
		if err := ji.Flush(); err != nil {
			return err
		}
	}
	for _, ix := range db.selects {
		if err := ix.Flush(); err != nil {
			return err
		}
		if ix.foldDue() {
			if err := ix.Reorganize(foldRunPages, foldFanIn); err != nil {
				return err
			}
		}
	}
	return nil
}
