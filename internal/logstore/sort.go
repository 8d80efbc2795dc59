package logstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"pds/internal/flash"
)

// Sort reorganizes src into a new sorted log using only sequential
// structures, exactly as the tutorial's reorganization step prescribes:
// it drains SortStream over src's records into a fresh log, so the result
// holds the same pages as when the final merge pass wrote its own log.
//
// src is flushed but otherwise left untouched; the caller decides when to
// drop it. The result draws blocks from the same allocator. A failed sort
// frees every block it allocated.
func Sort(src *Log, less func(a, b []byte) bool, runPages, fanIn int) (_ *Log, err error) {
	if err := src.Flush(); err != nil {
		return nil, err
	}
	it := src.Iter()
	s, err := SortStream(src.Alloc(), nil, func() ([]byte, bool, error) {
		rec, _, ok := it.Next()
		return rec, ok, it.Err()
	}, less, runPages, fanIn)
	if err != nil {
		return nil, err
	}
	out := NewLog(src.Alloc())
	for {
		rec, ok := s.Next()
		if !ok {
			break
		}
		if _, err = out.Append(rec); err != nil {
			break
		}
	}
	if err == nil {
		err = s.Err()
	}
	if err == nil {
		err = out.Flush()
	}
	if err = errors.Join(err, s.Drop()); err != nil {
		return nil, errors.Join(err, out.Drop())
	}
	return out, nil
}

// SortStream externally sorts the records next yields, stably under less,
// using only sequential structures, and yields the final merge to the
// caller instead of writing it to flash — the tutorial's pipelined
// evaluation, where the last merge feeds the structure being built:
//
//  1. records are accumulated until roughly runPages pages of RAM are
//     full, then sorted in RAM and emitted as a temporary log (a sorted
//     "run");
//  2. while more than fanIn runs remain, they are merged fanIn at a time,
//     each input consuming one page of RAM; a consumed run is dropped
//     (block-grain deallocation) as soon as its merge is complete;
//  3. the last at most fanIn runs are merged as the caller pulls records
//     with Sorted.Next. An input that fits one batch is never written:
//     the batch joins the final merge from RAM.
//
// old, when not nil, is the structure the sort is folded into: the
// tutorial's reorganization merges the sorted new entries with it in the
// same pass. It yields that structure's records, already sorted under
// less, each valid until its following call, then ok false. The merge
// holds it until Drop, so a caller that keeps its source in a structure
// it already has (a field of the store being reorganized) hands it over
// without allocating. It joins the
// final merge as its first input, so on equal keys its records come
// first — the stable sort of old's records followed by next's. It is
// first called at the merge's first read, so the page of RAM it reads
// into need not be taken earlier; its records are read once, in order,
// and never written.
//
// next returns the source's records in order, then ok false; a record may
// be a view the following call overwrites, since it is copied at once.
// The Go process holds what that model grants and no more: run formation
// copies records into one pooled slab of runPages pages (plus the record
// that crosses the budget) and sorts views into it, and a merge compares
// the head records where they lie in each input's page buffer.
//
// The runs draw blocks from alloc. A failed sort frees every block it
// allocated; a successful one holds its runs until Sorted.Drop.
func SortStream(alloc *flash.Allocator, old Source, next func() ([]byte, bool, error), less func(a, b []byte) bool, runPages, fanIn int) (_ *Sorted, err error) {
	if runPages < 1 {
		return nil, fmt.Errorf("logstore: runPages must be >= 1, got %d", runPages)
	}
	if fanIn < 2 {
		return nil, fmt.Errorf("logstore: fanIn must be >= 2, got %d", fanIn)
	}
	pageSize := alloc.Chip().Geometry().PageSize
	budget := runPages * pageSize
	// The batch closes on the record that reaches the budget, so the slab
	// never outgrows budget plus one record and the views stay put.
	s := &Sorted{slab: takeSlab(budget + pageSize)}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.Drop())
		}
	}()
	// The stable sort only ever asks "is a before b".
	cmp := func(a, b []byte) int {
		if less(a, b) {
			return -1
		}
		return 0
	}

	// Pass 0: form sorted runs. A closed batch is written only once
	// another record follows it, so an input that fits one batch stays in
	// RAM.
	slab := s.slab
	batchBytes := 0
	for {
		rec, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if batchBytes >= budget {
			if err := s.writeRun(alloc, cmp); err != nil {
				return nil, err
			}
			batchBytes = 0
		}
		at := len(slab.bytes)
		slab.bytes = append(slab.bytes, rec...)
		slab.recs = append(slab.recs, slab.bytes[at:len(slab.bytes):len(slab.bytes)])
		batchBytes += len(rec) + slotHeader
	}
	if len(s.runs) == 0 {
		slices.SortStableFunc(slab.recs, cmp)
		s.m.start(old, slab.recs, nil, less)
		return s, nil
	}
	if err := s.writeRun(alloc, cmp); err != nil {
		return nil, err
	}
	putSlab(slab)
	s.slab = nil

	// Merge passes, while the final merge would need more than fanIn
	// pages of RAM.
	for len(s.runs) > fanIn {
		var out []*Log
		for lo := 0; lo < len(s.runs); lo += fanIn {
			hi := min(lo+fanIn, len(s.runs))
			merged := NewLog(alloc)
			out = append(out, merged)
			err := mergeRuns(merged, s.runs[lo:hi], less)
			for _, r := range s.runs[lo:hi] {
				if err == nil {
					err = r.Drop()
				}
			}
			if err != nil {
				// Every run and every merged log is s's to drop; a run
				// already dropped drops as a no-op.
				s.runs = append(s.runs, out...)
				return nil, err
			}
		}
		s.runs = out
	}
	s.m.start(old, nil, s.runs, less)
	return s, nil
}

// Source is a stream of records in order: Next returns each, a view
// valid until the following call, then ok false.
type Source interface {
	Next() (rec []byte, ok bool, err error)
}

// Sorted is the final merge of an external sort (see SortStream): the
// records of old, if any, and of the sorted input, in order, pulled one
// at a time. It holds the runs the merge reads, and a page of RAM per
// run, or the one batch of a small input, until Drop.
type Sorted struct {
	slab *runSlab // the one batch of an input that fit one, else nil
	runs []*Log
	m    merger
	err  error
}

// Next returns the next record in sort order; ok is false after the last
// one or on an error (see Err). The record is a view valid until the
// following call.
func (s *Sorted) Next() (rec []byte, ok bool) {
	if s.err != nil {
		return nil, false
	}
	rec, ok, s.err = s.m.next()
	return rec, ok
}

// Err returns the error that ended the stream, if any.
func (s *Sorted) Err() error { return s.err }

// Drop frees the runs' blocks and hands the sort's RAM back to the pools.
// Call it once the stream is consumed or abandoned; calling it again does
// nothing.
func (s *Sorted) Drop() error {
	if s.slab != nil {
		putSlab(s.slab)
		s.slab = nil
	}
	s.m.release()
	s.m.old = nil
	var err error
	for _, r := range s.runs {
		err = errors.Join(err, r.Drop())
	}
	s.runs = nil
	return err
}

// writeRun sorts the batch in the slab, writes it as a new run and empties
// the slab.
func (s *Sorted) writeRun(alloc *flash.Allocator, cmp func(a, b []byte) int) error {
	slab := s.slab
	slices.SortStableFunc(slab.recs, cmp)
	run := NewLog(alloc)
	s.runs = append(s.runs, run)
	for _, rec := range slab.recs {
		if _, err := run.Append(rec); err != nil {
			return err
		}
	}
	slab.recs = slab.recs[:0]
	slab.bytes = slab.bytes[:0]
	return run.Flush()
}

// runSlab is the RAM of run formation: the batch's record bytes and the
// views sorted over them.
type runSlab struct {
	bytes []byte
	recs  [][]byte
}

// runSlabs recycles run-formation slabs across sorts, as pageBufs does
// pages, so a sort allocates its RAM only when the pool is empty.
var runSlabs sync.Pool

// takeSlab takes an empty slab of at least size bytes from the pool.
func takeSlab(size int) *runSlab {
	if s, _ := runSlabs.Get().(*runSlab); s != nil && cap(s.bytes) >= size {
		s.bytes, s.recs = s.bytes[:0], s.recs[:0]
		return s
	}
	return &runSlab{bytes: make([]byte, 0, size)}
}

// putSlab returns a slab to the pool.
func putSlab(s *runSlab) { runSlabs.Put(s) }

// mergeEntry is one heap element of a k-way merge: the head record of
// input src, viewed in that input's page buffer.
type mergeEntry struct {
	rec []byte
	src int
}

// mergeHeap is a binary min-heap of head records. It performs exactly the
// comparisons and swaps container/heap would, on a typed slice, so the
// merged order matches the boxed heap's for any less.
type mergeHeap struct {
	items []mergeEntry
	less  func(a, b []byte) bool
}

func (h *mergeHeap) before(i, j int) bool {
	if h.less(h.items[i].rec, h.items[j].rec) {
		return true
	}
	if h.less(h.items[j].rec, h.items[i].rec) {
		return false
	}
	// Tie-break on source index to keep the merge stable.
	return h.items[i].src < h.items[j].src
}

func (h *mergeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.before(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *mergeHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.before(j2, j1) {
			j = j2
		}
		if !h.before(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}

func (h *mergeHeap) init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *mergeHeap) push(e mergeEntry) {
	h.items = append(h.items, e)
	h.up(len(h.items) - 1)
}

func (h *mergeHeap) pop() mergeEntry {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	e := h.items[n]
	h.items = h.items[:n]
	return e
}

// merger is a k-way merge of sorted inputs: old, the caller's stream,
// when there is one, then the batch of a small input held in RAM or the
// sorted runs. Each run contributes one page of RAM via its iterator; the
// heap holds views of the head records into those pages. The input of the
// record yielded last moves on only at the following call, so no view
// outlives its page.
type merger struct {
	old   Source
	batch [][]byte
	runs  []Iterator // nil when the batch is the input
	h     mergeHeap
	// room backs the heap of a merge of at most two inputs.
	room [2]mergeEntry
	// last is the input of the record yielded last, -1 before the first.
	last int
	done bool
}

// start positions the merge before the first record of old (nil for
// none), then of batch when runs is nil, else of the runs.
func (m *merger) start(old Source, batch [][]byte, runs []*Log, less func(a, b []byte) bool) {
	m.old, m.batch = old, batch
	if runs != nil {
		m.runs = make([]Iterator, len(runs))
		for i, r := range runs {
			m.runs[i] = Iterator{log: r, curPage: -1}
		}
	}
	m.h = mergeHeap{items: m.room[:0], less: less}
	if n := m.inputs(); n > len(m.room) {
		m.h.items = make([]mergeEntry, 0, n)
	}
	m.last = -1
}

// inputs returns the number of inputs of the merge.
func (m *merger) inputs() int {
	n := len(m.runs)
	if m.runs == nil {
		n = 1
	}
	if m.old != nil {
		n++
	}
	return n
}

// read returns the next record of input src, a view valid until that
// input's following read, and false at its end.
func (m *merger) read(src int) ([]byte, bool, error) {
	if m.old != nil {
		if src == 0 {
			return m.old.Next()
		}
		src--
	}
	if m.runs != nil {
		it := &m.runs[src]
		rec, _, ok := it.Next()
		return rec, ok, it.Err()
	}
	if len(m.batch) == 0 {
		return nil, false, nil
	}
	rec := m.batch[0]
	m.batch = m.batch[1:]
	return rec, true, nil
}

// next returns the next merged record, a view valid until the following
// call, and false at the end.
func (m *merger) next() ([]byte, bool, error) {
	if m.done {
		return nil, false, nil
	}
	if m.last == -1 {
		// The first call reads every input's head.
		for i := range m.inputs() {
			rec, ok, err := m.read(i)
			if err != nil {
				return nil, false, err
			}
			if ok {
				m.h.items = append(m.h.items, mergeEntry{rec: rec, src: i})
			}
		}
		m.h.init()
	} else if rec, ok, err := m.read(m.last); err != nil {
		return nil, false, err
	} else if ok {
		m.h.push(mergeEntry{rec: rec, src: m.last})
	}
	if len(m.h.items) == 0 {
		m.done = true
		return nil, false, nil
	}
	e := m.h.pop()
	m.last = e.src
	return e.rec, true, nil
}

// release hands back the page of RAM of every run not read to its end.
func (m *merger) release() {
	for i := range m.runs {
		m.runs[i].Release()
	}
}

// mergeRuns merges sorted runs into out, an empty log.
func mergeRuns(out *Log, runs []*Log, less func(a, b []byte) bool) error {
	var m merger
	m.start(nil, nil, runs, less)
	defer m.release()
	for {
		rec, ok, err := m.next()
		if err != nil {
			return err
		}
		if !ok {
			return out.Flush()
		}
		if _, err := out.Append(rec); err != nil {
			return err
		}
	}
}
