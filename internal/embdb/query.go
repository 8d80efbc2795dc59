package embdb

import (
	"fmt"
	"slices"
	"sync"

	"pds/internal/logstore"
	"pds/internal/mcu"
)

// ColRef names a column of a table participating in a star query.
type ColRef struct {
	Table string
	Col   string
}

// Cond is an equality predicate on a column of the root table or of a
// dimension table reachable from the root.
type Cond struct {
	Table string
	Col   string
	Val   Value
}

// RangeCond is an inclusive range predicate lo <= col <= hi (in the
// canonical key order: numeric for Int columns, lexicographic for Str).
type RangeCond struct {
	Table string
	Col   string
	Lo    Value
	Hi    Value
}

// StarQuery is a select-project-join query over the schema tree rooted at
// Root, the query shape of the tutorial's Part II SQL illustration: a set
// of equality and range selections on dimension attributes, an implicit
// join along every foreign-key path, and a projection list.
type StarQuery struct {
	Root    string
	Conds   []Cond
	Ranges  []RangeCond
	Project []ColRef
}

// QueryStats describes the work performed by a star query.
type QueryStats struct {
	CandidateLists []int // postings per condition, pre-intersection
	Survivors      int   // root rowids after intersection
	TuplesFetched  int   // table tuples read to build results
}

// StarRows streams the result tuples of a star query. Join assembly is
// lazy and goes a window of survivors at a time, keeping RAM at a page
// per involved structure — the Tjoin's and one per fetched table — plus
// one page of sort entries. A window is assembled in two passes:
//
//   - in root rowid order, each survivor's Tjoin record is probed and the
//     root tuple fetched when the projection names it; every dimension
//     tuple the row needs is noted as an entry (step, rowid, window slot);
//   - the entries are sorted and each tuple fetched in that order, so a
//     dimension page is read at most once per window, and its projected
//     columns are decoded into the row at the entry's slot.
//
// Next then hands the window's rows out in root rowid order. Each page
// stays held across rows and windows, so a probe or fetch that lands on
// the page already held reads nothing. A failure ends the stream at the
// window that hit it: none of that window's rows is returned.
type StarRows struct {
	db      *DB
	ji      *JoinIndex
	rids    []RowID
	pos     int         // next survivor to assemble
	fetch   []fetchStep // the distinct projected tables, in first-use order
	proj    []projCol
	dimRids []RowID           // the Tjoin record of the row being probed
	jpage   logstore.HeldPage // the Tjoin page of RAM
	window  int               // survivors per window
	ents    *[]uint64         // the page of sort entries, nil when none is held
	slab    []Value           // the window's rows, len(proj) values each
	wpos    int               // next row of the window to hand out
	wlen    int               // rows in the window
	stats   QueryStats
	res     *mcu.Reservation
	err     error
}

// entryPages recycles the pages of sort entries of star queries: one
// uint64 per entry, step<<48 | rowid<<16 | slot, so that sorting the
// words sorts the entries by (step, rowid, slot).
var entryPages sync.Pool

// maxWindow bounds a window so that a slot fits an entry's 16 bits.
const maxWindow = 1 << 16

// fetchStep is one tuple fetch of a result row: the root tuple itself
// (dim < 0) or the tuple of table that entry dim of the Tjoin record names,
// read into the step's own page of RAM.
type fetchStep struct {
	table *Table
	dim   int
	page  logstore.HeldPage
}

// projCol is one output column: column colIdx of the tuple that fetch
// step step reads.
type projCol struct {
	step   int
	colIdx int
}

// ExecuteStar evaluates a star query in pipeline through Tselect and Tjoin
// indexes: each condition yields an ascending list of root rowids, the
// lists are merge-intersected, and surviving rowids drive index-probe joins
// a window at a time — Tjoin probes and root tuples in rowid order, then
// each dimension table's tuples sorted by dimension rowid (see StarRows).
// A window holds max(1, PageSize / (8 × dimension steps)) survivors, so
// that its sort entries fill at most one page, which the query reserves
// with its rid lists.
func (db *DB) ExecuteStar(q StarQuery) (*StarRows, error) {
	ji, err := db.JoinIndexOf(q.Root)
	if err != nil {
		return nil, err
	}
	root, err := db.Table(q.Root)
	if err != nil {
		return nil, err
	}
	rows := &StarRows{
		db: db, ji: ji,
		fetch: make([]fetchStep, 0, len(q.Project)),
		proj:  make([]projCol, 0, len(q.Project)),
	}
	// Resolve projection columns; each distinct table is fetched once per
	// result row, in the order the projection first names it.
	dimSteps := 0
	for _, p := range q.Project {
		t, err := db.Table(p.Table)
		if err != nil {
			return nil, err
		}
		ci := t.Schema().ColIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, p.Table, p.Col)
		}
		dim := -1
		if p.Table != q.Root {
			if dim = slices.Index(ji.Dims(), p.Table); dim < 0 {
				return nil, fmt.Errorf("embdb: projected table %s not reachable from %s", p.Table, q.Root)
			}
		}
		step := slices.IndexFunc(rows.fetch, func(f fetchStep) bool { return f.table == t })
		if step < 0 {
			step = len(rows.fetch)
			rows.fetch = append(rows.fetch, fetchStep{table: t, dim: dim})
			if dim >= 0 {
				dimSteps++
			}
		}
		rows.proj = append(rows.proj, projCol{step: step, colIdx: ci})
	}

	// Candidate root rowids per condition, each ascending by construction.
	nconds := len(q.Conds) + len(q.Ranges)
	lists := make([][]RowID, 0, nconds)
	rows.stats.CandidateLists = make([]int, 0, nconds)
	for _, c := range q.Conds {
		ix, err := db.Tselect(q.Root, c.Table, c.Col)
		if err != nil {
			return nil, err
		}
		rids, _, err := ix.Lookup(c.Val)
		if err != nil {
			return nil, err
		}
		rows.stats.CandidateLists = append(rows.stats.CandidateLists, len(rids))
		lists = append(lists, rids)
	}
	for _, r := range q.Ranges {
		ix, err := db.Tselect(q.Root, r.Table, r.Col)
		if err != nil {
			return nil, err
		}
		rids, _, err := ix.LookupRange(r.Lo, r.Hi)
		if err != nil {
			return nil, err
		}
		rows.stats.CandidateLists = append(rows.stats.CandidateLists, len(rids))
		lists = append(lists, rids)
	}
	// Account the materialized rid lists and the page of sort entries
	// against the MCU RAM. The survivors are written over the first list,
	// so they add nothing to its share.
	var survivors []RowID
	ram := 0
	if len(lists) == 0 {
		// No conditions: every root tuple qualifies.
		survivors = make([]RowID, root.Len())
		for i := range survivors {
			survivors[i] = RowID(i)
		}
		ram = 4 * len(survivors)
	} else {
		survivors = intersectSorted(lists)
	}
	for _, l := range lists {
		ram += 4 * len(l)
	}
	pageSize := root.Chip().Geometry().PageSize
	rows.window = min(max(1, pageSize/(8*max(1, dimSteps))), maxWindow)
	if dimSteps > 0 {
		ram += pageSize
	}
	res, err := db.arena.Reserve(ram)
	if err != nil {
		return nil, fmt.Errorf("embdb: star query rid lists: %w", err)
	}
	rows.res = res
	if dimSteps > 0 {
		ents, _ := entryPages.Get().(*[]uint64)
		if ents == nil || cap(*ents) < pageSize/8 {
			e := make([]uint64, 0, pageSize/8)
			ents = &e
		}
		rows.ents = ents
	}
	rows.rids = survivors
	rows.stats.Survivors = len(survivors)
	if db.obsv != nil {
		db.obsv.Counter(MetricQueries, "path", "star").Inc()
		hist := db.obsv.Histogram(MetricTselectListSize, tselectListBounds)
		for _, n := range rows.stats.CandidateLists {
			db.count(MetricTselectCandidates, int64(n))
			hist.Observe(int64(n))
		}
		db.count(MetricStarSurvivors, int64(len(survivors)))
		db.obsv.Gauge(MetricRidRAMBytes).Set(int64(ram))
	}
	return rows, nil
}

// intersectSorted merge-intersects ascending rowid lists. The result is
// written over the first list's front, which each pass reads ahead of.
func intersectSorted(lists [][]RowID) []RowID {
	out := lists[0]
	for _, l := range lists[1:] {
		next := out[:0]
		i, j := 0, 0
		for i < len(out) && j < len(l) {
			switch {
			case out[i] == l[j]:
				next = append(next, out[i])
				i++
				j++
			case out[i] < l[j]:
				i++
			default:
				j++
			}
		}
		out = next
		if len(out) == 0 {
			break
		}
	}
	return out
}

// Next returns the next projected result row. A failed window ends the
// stream and releases its RAM like the last one does.
func (r *StarRows) Next() (Row, bool) {
	if r.wpos == r.wlen {
		if r.err != nil || r.pos >= len(r.rids) {
			r.Close()
			return nil, false
		}
		if err := r.fill(); err != nil {
			r.err = err
			r.Close()
			return nil, false
		}
	}
	n := len(r.proj)
	row := r.slab[r.wpos*n : (r.wpos+1)*n : (r.wpos+1)*n]
	r.wpos++
	return row, true
}

// fill assembles the next window of survivors into a fresh slab of rows.
// Pass 1 probes the Tjoin and fetches the root tuple in root rowid order
// and notes one sort entry per dimension fetch; pass 2 fetches the
// dimension tuples in entry order. Every tuple is viewed in its
// structure's held page and only the projected columns are copied out.
func (r *StarRows) fill() error {
	rids := r.rids[r.pos:min(r.pos+r.window, len(r.rids))]
	r.pos += len(rids)
	n := len(r.proj)
	r.slab = make([]Value, len(rids)*n)
	r.wpos, r.wlen = 0, 0
	var ents []uint64
	if r.ents != nil {
		ents = (*r.ents)[:0]
	}
	probes, fetched := 0, 0
	defer func() {
		r.stats.TuplesFetched += fetched
		r.db.count(MetricTjoinProbes, int64(probes))
		r.db.count(MetricTuplesFetched, int64(fetched))
	}()
	for slot, rid := range rids {
		dimRids, err := r.ji.get(rid, r.dimRids[:0], &r.jpage)
		probes++
		if err != nil {
			return err
		}
		r.dimRids = dimRids
		for step := range r.fetch {
			f := &r.fetch[step]
			if f.dim >= 0 {
				ents = append(ents, uint64(step)<<48|uint64(dimRids[f.dim])<<16|uint64(slot))
				continue
			}
			if err := r.decode(step, rid, slot); err != nil {
				return err
			}
			fetched++
		}
	}
	slices.Sort(ents)
	for _, e := range ents {
		if err := r.decode(int(e>>48), RowID(uint32(e>>16)), int(e&0xffff)); err != nil {
			return err
		}
		fetched++
	}
	r.wlen = len(rids)
	return nil
}

// decode views tuple rid of fetch step step in the step's held page and
// copies its projected columns into the window's row at slot.
func (r *StarRows) decode(step int, rid RowID, slot int) error {
	f := &r.fetch[step]
	data, err := f.table.view(rid, &f.page)
	if err != nil {
		return err
	}
	n := len(r.proj)
	return decodeCols(f.table.schema, data, r.proj, step, r.slab[slot*n:(slot+1)*n])
}

// Err returns the first error hit while streaming.
func (r *StarRows) Err() error { return r.err }

// Stats returns the query statistics (complete once streaming finished).
func (r *StarRows) Stats() QueryStats { return r.stats }

// Close ends the stream: it releases the query's RAM reservation and
// hands its held pages and its page of sort entries back. Safe to call
// repeatedly; Next calls it automatically when the stream ends or fails.
func (r *StarRows) Close() {
	r.pos = len(r.rids)
	r.slab, r.wpos, r.wlen = nil, 0, 0
	if r.ents != nil {
		entryPages.Put(r.ents)
		r.ents = nil
	}
	if r.res != nil {
		r.res.Release()
		r.res = nil
	}
	r.jpage.Release()
	for i := range r.fetch {
		r.fetch[i].page.Release()
	}
}

// All drains the stream into a slice (convenience for tests and examples).
func (r *StarRows) All() ([]Row, error) {
	var out []Row
	for {
		row, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, row)
	}
	return out, r.Err()
}

// ExecuteStarNaive is the index-free baseline: it scans the whole root
// table and, for every tuple, walks the foreign-key chains reading parent
// tuples to evaluate the conditions. Its I/O grows with the root table
// size regardless of selectivity — the behaviour the Tselect/Tjoin design
// eliminates.
func (db *DB) ExecuteStarNaive(q StarQuery) ([]Row, QueryStats, error) {
	var stats QueryStats
	root, err := db.Table(q.Root)
	if err != nil {
		return nil, stats, err
	}
	if db.obsv != nil {
		db.obsv.Counter(MetricQueries, "path", "naive").Inc()
		defer func() { db.count(MetricTuplesFetched, int64(stats.TuplesFetched)) }()
	}
	// Pre-resolve condition and projection columns.
	type colAt struct {
		table string
		ci    int
		key   []byte
	}
	var conds []colAt
	for _, c := range q.Conds {
		t, err := db.Table(c.Table)
		if err != nil {
			return nil, stats, err
		}
		ci := t.Schema().ColIndex(c.Col)
		if ci < 0 {
			return nil, stats, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, c.Table, c.Col)
		}
		conds = append(conds, colAt{table: c.Table, ci: ci, key: Key(c.Val)})
	}
	type rangeAt struct {
		table  string
		ci     int
		lo, hi string
	}
	var ranges []rangeAt
	for _, r := range q.Ranges {
		t, err := db.Table(r.Table)
		if err != nil {
			return nil, stats, err
		}
		ci := t.Schema().ColIndex(r.Col)
		if ci < 0 {
			return nil, stats, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, r.Table, r.Col)
		}
		ranges = append(ranges, rangeAt{table: r.Table, ci: ci, lo: string(Key(r.Lo)), hi: string(Key(r.Hi))})
	}
	var proj []colAt
	for _, p := range q.Project {
		t, err := db.Table(p.Table)
		if err != nil {
			return nil, stats, err
		}
		ci := t.Schema().ColIndex(p.Col)
		if ci < 0 {
			return nil, stats, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, p.Table, p.Col)
		}
		proj = append(proj, colAt{table: p.Table, ci: ci})
	}

	var out []Row
	it := root.Scan()
	for {
		row, _, ok := it.Next()
		if !ok {
			break
		}
		_, dimRows, err := db.walkFKs(q.Root, row)
		if err != nil {
			return nil, stats, err
		}
		stats.TuplesFetched += 1 + len(dimRows)
		rowOf := func(table string) Row {
			if table == q.Root {
				return row
			}
			return dimRows[table]
		}
		match := true
		for _, c := range conds {
			r := rowOf(c.table)
			if r == nil || string(Key(r[c.ci])) != string(c.key) {
				match = false
				break
			}
		}
		for _, rc := range ranges {
			if !match {
				break
			}
			r := rowOf(rc.table)
			if r == nil {
				match = false
				break
			}
			k := string(Key(r[rc.ci]))
			if k < rc.lo || k > rc.hi {
				match = false
			}
		}
		if !match {
			continue
		}
		res := make(Row, len(proj))
		for i, p := range proj {
			res[i] = rowOf(p.table)[p.ci]
		}
		out = append(out, res)
		stats.Survivors++
	}
	return out, stats, it.Err()
}
