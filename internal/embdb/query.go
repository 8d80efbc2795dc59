package embdb

import (
	"fmt"
	"slices"

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
// lazy: each Next call probes the Tjoin index and fetches only the tuples
// the projection needs, keeping RAM at a page per involved structure —
// the Tjoin's and one per fetched table. Each page stays held across
// rows, and survivors come in ascending rowid order, so a probe or fetch
// that lands on the page already held reads nothing.
type StarRows struct {
	db      *DB
	ji      *JoinIndex
	rids    []RowID
	pos     int
	root    *Table
	fetch   []fetchStep // the distinct projected tables, in first-use order
	proj    []projCol
	dimRids []RowID           // the Tjoin record of the row being assembled
	jpage   logstore.HeldPage // the Tjoin page of RAM
	stats   QueryStats
	res     *mcu.Reservation
	err     error
}

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
// lists are merge-intersected, and surviving rowids drive index-probe joins.
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
		db: db, ji: ji, root: root,
		fetch: make([]fetchStep, 0, len(q.Project)),
		proj:  make([]projCol, 0, len(q.Project)),
	}
	// Resolve projection columns; each distinct table is fetched once per
	// result row, in the order the projection first names it.
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
	// Account the materialized rid lists against the MCU RAM. The
	// survivors are written over the first list, so they add nothing to
	// its share.
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
	res, err := db.arena.Reserve(ram)
	if err != nil {
		return nil, fmt.Errorf("embdb: star query rid lists: %w", err)
	}
	rows.res = res
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

// Next returns the next projected result row. A failed row ends the stream
// and releases its RAM like the last one does.
func (r *StarRows) Next() (Row, bool) {
	if r.err != nil || r.pos >= len(r.rids) {
		r.Close()
		return nil, false
	}
	rid := r.rids[r.pos]
	r.pos++
	row, err := r.assemble(rid)
	if err != nil {
		r.err = err
		r.Close()
		return nil, false
	}
	return row, true
}

// assemble builds the result row of root rowid rid: the Tjoin probe, then
// each projected table's tuple, is viewed in its structure's held page and
// only the projected columns are copied out.
func (r *StarRows) assemble(rid RowID) (Row, error) {
	dimRids, err := r.ji.get(rid, r.dimRids[:0], &r.jpage)
	r.db.count(MetricTjoinProbes, 1)
	if err != nil {
		return nil, err
	}
	r.dimRids = dimRids
	out := make(Row, len(r.proj))
	for step := range r.fetch {
		f := &r.fetch[step]
		trid := rid
		if f.dim >= 0 {
			trid = dimRids[f.dim]
		}
		data, err := f.table.view(trid, &f.page)
		if err != nil {
			return nil, err
		}
		if err := decodeCols(f.table.schema, data, r.proj, step, out); err != nil {
			return nil, err
		}
		r.stats.TuplesFetched++
		r.db.count(MetricTuplesFetched, 1)
	}
	return out, nil
}

// Err returns the first error hit while streaming.
func (r *StarRows) Err() error { return r.err }

// Stats returns the query statistics (complete once streaming finished).
func (r *StarRows) Stats() QueryStats { return r.stats }

// Close ends the stream: it releases the query's RAM reservation and
// hands its held pages back. Safe to call repeatedly; Next calls it
// automatically when the stream ends or fails.
func (r *StarRows) Close() {
	r.pos = len(r.rids)
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
