package logstore

import (
	"fmt"
	"slices"
)

// Sort reorganizes src into a new sorted log using only sequential
// structures, exactly as the tutorial's reorganization step prescribes:
//
//  1. records are read in stream order and accumulated until roughly
//     runPages pages of RAM are full, then sorted in RAM and emitted as a
//     temporary log (a sorted "run");
//  2. runs are merged fanIn at a time, each input consuming one page of
//     RAM, until a single sorted log remains. Intermediate runs are
//     dropped (block-grain deallocation) as soon as they are consumed.
//
// The Go process holds what that model grants and no more: run formation
// copies records into one slab of runPages pages (plus the record that
// crosses the budget) and sorts views into it, and a merge compares the
// head records where they lie in each input's page buffer.
//
// src is flushed but otherwise left untouched; the caller decides when to
// drop it. The result draws blocks from the same allocator. A failed sort
// frees every block it allocated.
func Sort(src *Log, less func(a, b []byte) bool, runPages, fanIn int) (_ *Log, err error) {
	if runPages < 1 {
		return nil, fmt.Errorf("logstore: runPages must be >= 1, got %d", runPages)
	}
	if fanIn < 2 {
		return nil, fmt.Errorf("logstore: fanIn must be >= 2, got %d", fanIn)
	}
	if err := src.Flush(); err != nil {
		return nil, err
	}
	alloc := src.Alloc()
	pageSize := src.Chip().Geometry().PageSize
	// runs are the current pass's inputs, next its outputs so far; each
	// joins its slice before its first write, so a failed sort drops every
	// log it made (dropping one already consumed is a no-op).
	var runs, next []*Log
	defer func() {
		if err != nil {
			for _, l := range runs {
				l.Drop()
			}
			for _, l := range next {
				l.Drop()
			}
		}
	}()

	// Pass 0: form sorted runs.
	budget := runPages * pageSize
	// The batch closes on the record that reaches the budget, so the slab
	// never outgrows budget plus one record and the views stay put.
	slab := make([]byte, 0, budget+pageSize)
	var batch [][]byte
	batchBytes := 0
	// The stable sort only ever asks "is a before b".
	cmp := func(a, b []byte) int {
		if less(a, b) {
			return -1
		}
		return 0
	}
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		slices.SortStableFunc(batch, cmp)
		run := NewLog(alloc)
		runs = append(runs, run)
		for _, rec := range batch {
			if _, err := run.Append(rec); err != nil {
				return err
			}
		}
		if err := run.Flush(); err != nil {
			return err
		}
		batch = batch[:0]
		slab = slab[:0]
		batchBytes = 0
		return nil
	}
	it := src.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		at := len(slab)
		slab = append(slab, rec...)
		batch = append(batch, slab[at:len(slab):len(slab)])
		batchBytes += len(rec) + slotHeader
		if batchBytes >= budget {
			if err := flushBatch(); err != nil {
				return nil, err
			}
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	if err := flushBatch(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		out := NewLog(alloc)
		return out, out.Flush()
	}

	// Merge passes.
	for len(runs) > 1 {
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			merged := NewLog(alloc)
			next = append(next, merged)
			if err := mergeRuns(merged, runs[lo:hi], less); err != nil {
				return nil, err
			}
			for _, r := range runs[lo:hi] {
				if err := r.Drop(); err != nil {
					return nil, err
				}
			}
		}
		runs, next = next, nil
	}
	return runs[0], nil
}

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

// mergeRuns merges sorted runs into out, an empty log. Each run
// contributes one page of RAM via its iterator; the heap holds views of
// the head records into those pages. A head is appended to the output
// before its iterator moves on, so no view outlives its page.
func mergeRuns(out *Log, runs []*Log, less func(a, b []byte) bool) error {
	iters := make([]Iterator, len(runs))
	h := &mergeHeap{items: make([]mergeEntry, 0, len(runs)), less: less}
	for i, r := range runs {
		iters[i] = Iterator{log: r, curPage: -1}
		if rec, _, ok := iters[i].Next(); ok {
			h.items = append(h.items, mergeEntry{rec: rec, src: i})
		} else if err := iters[i].Err(); err != nil {
			return err
		}
	}
	h.init()
	for len(h.items) > 0 {
		e := h.pop()
		if _, err := out.Append(e.rec); err != nil {
			return err
		}
		if rec, _, ok := iters[e.src].Next(); ok {
			h.push(mergeEntry{rec: rec, src: e.src})
		} else if err := iters[e.src].Err(); err != nil {
			return err
		}
	}
	return out.Flush()
}
