package embdb

import (
	"fmt"
	"slices"
	"strings"
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
//
// A row handed out stays valid after later windows and after Close: each
// window has a slab of values and a string buffer of its own, and a
// dimension tuple that several rows of a window share is decoded once,
// its boxed values shared by those rows.
type StarRows struct {
	db      *DB
	ji      *JoinIndex
	rids    []RowID     // the survivors, written over the first pooled list
	lists   []*[]RowID  // the pooled candidate lists, handed back by Close
	pos     int         // next survivor to assemble
	fetch   []fetchStep // the distinct projected tables, in first-use order
	proj    []projCol
	dimRids []RowID           // the Tjoin record of the row being probed
	jpage   logstore.HeldPage // the Tjoin page of RAM
	window  int               // survivors per window
	ents    *[]uint64         // the page of sort entries, nil when none is held
	slab    []Value           // the window's rows, len(proj) values each
	strs    strings.Builder   // the window's projected strings
	wpos    int               // next row of the window to hand out
	wlen    int               // rows in the window
	stats   QueryStats
	res     mcu.Reservation
	err     error
}

// entryPages recycles the pages of sort entries of star queries: one
// uint64 per entry, step<<48 | rowid<<16 | slot, so that sorting the
// words sorts the entries by (step, rowid, slot).
var entryPages sync.Pool

// ridLists recycles the candidate rid lists of star queries, as
// entryPages does their pages of sort entries: a query draws one per
// condition and hands them back when its stream closes.
var ridLists sync.Pool

// ridList draws an empty rid list from the pool and keeps it for Close.
func (r *StarRows) ridList() *[]RowID {
	l, _ := ridLists.Get().(*[]RowID)
	if l == nil {
		l = new([]RowID)
	}
	*l = (*l)[:0]
	r.lists = append(r.lists, l)
	return l
}

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

	// Candidate root rowids per condition, each ascending by construction
	// and looked up into a list from the pool; a failed query hands the
	// lists it drew back.
	nconds := len(q.Conds) + len(q.Ranges)
	lists := make([][]RowID, 0, nconds)
	rows.lists = make([]*[]RowID, 0, max(1, nconds))
	rows.stats.CandidateLists = make([]int, 0, nconds)
	for i := 0; i < nconds; i++ {
		var ix *SelectIndex
		l := rows.ridList()
		if i < len(q.Conds) {
			c := q.Conds[i]
			if ix, err = db.Tselect(q.Root, c.Table, c.Col); err == nil {
				*l, _, err = ix.AppendLookup(*l, c.Val)
			}
		} else {
			r := q.Ranges[i-len(q.Conds)]
			if ix, err = db.Tselect(q.Root, r.Table, r.Col); err == nil {
				*l, _, err = ix.AppendLookupRange(*l, r.Lo, r.Hi)
			}
		}
		if err != nil {
			rows.Close()
			return nil, err
		}
		rows.stats.CandidateLists = append(rows.stats.CandidateLists, len(*l))
		lists = append(lists, *l)
	}
	// Account the materialized rid lists and the page of sort entries
	// against the MCU RAM. The survivors are written over the first list,
	// so they add nothing to its share.
	var survivors []RowID
	ram := 0
	if len(lists) == 0 {
		// No conditions: every root tuple qualifies.
		l := rows.ridList()
		*l = slices.Grow(*l, root.Len())
		for i := range root.Len() {
			*l = append(*l, RowID(i))
		}
		survivors = *l
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
		rows.Close()
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
	r.strs.Reset()
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
			// The first root tuple sizes the strings of all of them.
			tuples := 0
			if slot == 0 {
				tuples = len(rids)
			}
			if err := r.decode(step, rid, slot, tuples); err != nil {
				return err
			}
			fetched++
		}
	}
	// An entry with the (step, rowid) of the one before it shares that
	// tuple's values: it is counted as fetched, but the first entry has
	// already validated and decoded the bytes, from the same held page.
	slices.Sort(ents)
	prev, prevSlot := ^uint64(0), 0
	for j, e := range ents {
		step, slot := int(e>>48), int(e&0xffff)
		if e>>16 == prev {
			for i, p := range r.proj {
				if p.step == step {
					r.slab[slot*n+i] = r.slab[prevSlot*n+i]
				}
			}
		} else if err := r.decode(step, RowID(uint32(e>>16)), slot, stepTuples(ents[j:], prev)); err != nil {
			return err
		}
		prev, prevSlot = e>>16, slot
		fetched++
	}
	r.wlen = len(rids)
	return nil
}

// stepTuples is, at the first entry of a fetch step in the sorted
// entries ents (prev the (step, rowid) of the entry before it), how many
// distinct tuples of that step the window decodes; 0 anywhere else.
func stepTuples(ents []uint64, prev uint64) int {
	step := ents[0] >> 48
	if prev != ^uint64(0) && prev>>32 == step {
		return 0
	}
	tuples, last := 0, ^uint64(0)
	for _, e := range ents {
		if e>>48 != step {
			break
		}
		if e>>16 != last {
			tuples, last = tuples+1, e>>16
		}
	}
	return tuples
}

// decode views tuple rid of fetch step step in the step's held page and
// copies its projected columns into the window's row at slot. A tuples
// > 0 says this is the first of the window's tuples decodes of the step:
// it grows the window's string buffer for all of them at once, taking
// this tuple's projected string bytes for each — one allocation for a
// column of alike strings (a name), where appending would double the
// buffer up from 8 bytes. Longer strings later only cost a doubling.
func (r *StarRows) decode(step int, rid RowID, slot, tuples int) error {
	f := &r.fetch[step]
	data, err := f.table.view(rid, &f.page)
	if err != nil {
		return err
	}
	if tuples > 0 {
		r.strs.Grow(tuples * projStrBytes(f.table.schema, data, r.proj, step))
	}
	n := len(r.proj)
	return decodeCols(f.table.schema, data, r.proj, step, r.slab[slot*n:(slot+1)*n], &r.strs)
}

// Err returns the first error hit while streaming.
func (r *StarRows) Err() error { return r.err }

// Stats returns the query statistics (complete once streaming finished).
func (r *StarRows) Stats() QueryStats { return r.stats }

// Close ends the stream: it releases the query's RAM reservation and
// hands its held pages, its page of sort entries and its rid lists back.
// The rows handed out stay valid. Safe to call repeatedly; Next calls it
// automatically when the stream ends or fails.
func (r *StarRows) Close() {
	r.rids, r.pos = nil, 0
	r.slab, r.wpos, r.wlen = nil, 0, 0
	r.strs.Reset()
	for i, l := range r.lists {
		ridLists.Put(l)
		r.lists[i] = nil
	}
	r.lists = r.lists[:0]
	if r.ents != nil {
		entryPages.Put(r.ents)
		r.ents = nil
	}
	r.res.Release()
	r.jpage.Release()
	for i := range r.fetch {
		r.fetch[i].page.Release()
	}
}

// All drains the stream into a slice sized for the rows left; it is how
// core.PDS.QueryAs answers.
func (r *StarRows) All() ([]Row, error) {
	out := make([]Row, 0, r.wlen-r.wpos+len(r.rids)-r.pos)
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
