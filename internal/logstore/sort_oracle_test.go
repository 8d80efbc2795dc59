package logstore

import (
	"container/heap"
	"fmt"
	"sort"

	"pds/internal/flash"
)

// sortOracle is Sort as it stood before it stopped allocating per record:
// a copy of every record, sort.SliceStable, container/heap. The
// differential tests hold the new Sort to its output and its page I/O.
func sortOracle(src *Log, less func(a, b []byte) bool, runPages, fanIn int) (*Log, error) {
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

	// Pass 0: form sorted runs.
	var runs []*Log
	budget := runPages * pageSize
	var batch [][]byte
	batchBytes := 0
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		sort.SliceStable(batch, func(i, j int) bool { return less(batch[i], batch[j]) })
		run := NewLog(alloc)
		for _, rec := range batch {
			if _, err := run.Append(rec); err != nil {
				return err
			}
		}
		if err := run.Flush(); err != nil {
			return err
		}
		runs = append(runs, run)
		batch = batch[:0]
		batchBytes = 0
		return nil
	}
	it := src.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		cp := make([]byte, len(rec))
		copy(cp, rec)
		batch = append(batch, cp)
		batchBytes += len(cp) + slotHeader
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
		var next []*Log
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			merged, err := mergeRunsOracle(alloc, runs[lo:hi], less)
			if err != nil {
				return nil, err
			}
			for _, r := range runs[lo:hi] {
				if err := r.Drop(); err != nil {
					return nil, err
				}
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs[0], nil
}

type oracleHeap struct {
	items []mergeEntry
	less  func(a, b []byte) bool
}

func (h *oracleHeap) Len() int { return len(h.items) }
func (h *oracleHeap) Less(i, j int) bool {
	if h.less(h.items[i].rec, h.items[j].rec) {
		return true
	}
	if h.less(h.items[j].rec, h.items[i].rec) {
		return false
	}
	// Tie-break on source index to keep the merge stable.
	return h.items[i].src < h.items[j].src
}
func (h *oracleHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *oracleHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeEntry)) }
func (h *oracleHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

func mergeRunsOracle(alloc *flash.Allocator, runs []*Log, less func(a, b []byte) bool) (*Log, error) {
	out := NewLog(alloc)
	iters := make([]*Iterator, len(runs))
	h := &oracleHeap{less: less}
	for i, r := range runs {
		iters[i] = r.Iter()
		if rec, _, ok := iters[i].Next(); ok {
			cp := make([]byte, len(rec))
			copy(cp, rec)
			h.items = append(h.items, mergeEntry{rec: cp, src: i})
		} else if err := iters[i].Err(); err != nil {
			return nil, err
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		e := heap.Pop(h).(mergeEntry)
		if _, err := out.Append(e.rec); err != nil {
			return nil, err
		}
		if rec, _, ok := iters[e.src].Next(); ok {
			cp := make([]byte, len(rec))
			copy(cp, rec)
			heap.Push(h, mergeEntry{rec: cp, src: e.src})
		} else if err := iters[e.src].Err(); err != nil {
			return nil, err
		}
	}
	return out, out.Flush()
}
