package embdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pds/internal/bloom"
	"pds/internal/logstore"
)

// keyEntry is one index posting: (encoded key, rowid).
type keyEntry struct {
	key []byte
	rid RowID
}

// encodeEntry serializes (key, rid) as u16 keyLen | key | u32 rid.
func encodeEntry(key []byte, rid RowID) []byte {
	out := make([]byte, 2+len(key)+4)
	binary.LittleEndian.PutUint16(out[0:2], uint16(len(key)))
	copy(out[2:], key)
	binary.LittleEndian.PutUint32(out[2+len(key):], uint32(rid))
	return out
}

// decodeEntry parses a record produced by encodeEntry.
func decodeEntry(rec []byte) (keyEntry, error) {
	if len(rec) < 6 {
		return keyEntry{}, fmt.Errorf("embdb: short index entry (%d bytes)", len(rec))
	}
	n := int(binary.LittleEndian.Uint16(rec[0:2]))
	if 2+n+4 != len(rec) {
		return keyEntry{}, fmt.Errorf("embdb: corrupt index entry (keyLen %d, rec %d)", n, len(rec))
	}
	return keyEntry{
		key: rec[2 : 2+n],
		rid: RowID(binary.LittleEndian.Uint32(rec[2+n:])),
	}, nil
}

// SelectIndex is the tutorial's selection index on one column. Postings
// enter a sequential tail, a summarized log (logstore.NewSummarized):
//
//	Log1 "Keys":          (key, rowid) postings in insertion order;
//	Log2 "Bloom Filters": one Bloom summary per flushed Keys page,
//
// which Reorganize folds into a TreeIndex the index owns — the tutorial's
// scalability step. A lookup descends the tree, then scans the tail's
// (much smaller) summary log and touches only the Keys pages whose filter
// answers positively: the "summary scan" that costs a handful of I/Os
// where the full table scan costs hundreds.
type SelectIndex struct {
	table  *Table
	col    string
	colIdx int
	// tree holds the postings of every fold so far, nil before the first;
	// each of its rowids is below every rowid of the tail.
	tree    *TreeIndex
	keys    *logstore.Log
	entries int
	// fold is the old structure of the reorganization under way.
	fold leafFold
	// SummaryBits is the Bloom budget in bits per key (default 16 ≈ the
	// paper's 2 bytes/key). Change it before the first insertion; the
	// ablation experiment sweeps it.
	SummaryBits int
}

// NewSelectIndex creates an index over table.col. Existing tuples are not
// back-filled; create indexes before loading (as the embedded design
// assumes) or reinsert.
func NewSelectIndex(table *Table, col string) (*SelectIndex, error) {
	ci := table.Schema().ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, table.Name(), col)
	}
	ix := &SelectIndex{table: table, col: col, colIdx: ci, SummaryBits: 16}
	ix.newTail()
	return ix, nil
}

// newTail starts an empty sequential tail.
func (ix *SelectIndex) newTail() {
	ix.keys = logstore.NewSummarized(ix.table.Alloc(), ix.summarize)
}

// summarize appends the Bloom filter of a Keys page's keys.
func (ix *SelectIndex) summarize(dst []byte, page logstore.PageView) ([]byte, error) {
	f := bloom.NewPageSummaryBits(page.Len(), ix.SummaryBits)
	for {
		rec, ok := page.Next()
		if !ok {
			break
		}
		e, err := decodeEntry(rec)
		if err != nil {
			return nil, err
		}
		f.Add(e.key)
	}
	blob, err := f.MarshalBinary()
	return append(dst, blob...), err
}

// Len returns the number of postings.
func (ix *SelectIndex) Len() int { return ix.entries }

// KeysPages returns the number of flushed Keys pages of the tail.
func (ix *SelectIndex) KeysPages() int { return ix.keys.Pages() }

// SummaryPages returns the number of flushed summary pages of the tail.
func (ix *SelectIndex) SummaryPages() int { return ix.keys.SummaryPages() }

// Tree returns the tree the index has folded its postings into, nil
// before the first fold. It is the index's own: read its shape, never
// drop it.
func (ix *SelectIndex) Tree() *TreeIndex { return ix.tree }

// Add indexes one tuple. Call it with the value and rowid returned by the
// table insert; the DB wrapper does this automatically.
func (ix *SelectIndex) Add(v Value, rid RowID) error {
	if _, err := ix.keys.Append(encodeEntry(Key(v), rid)); err != nil {
		return err
	}
	ix.entries++
	return nil
}

// Flush persists pending postings and their summary.
func (ix *SelectIndex) Flush() error { return ix.keys.Flush() }

// LookupStats reports the work a lookup performed.
type LookupStats struct {
	TreePages    int // tree node pages read
	SummaryPages int // summary pages scanned
	KeyPagesRead int // Keys pages read (filter positives)
	FalseReads   int // positives that yielded no match
	Matches      int // postings found
}

// Lookup returns the rowids whose indexed value equals v, in ascending
// rowid order: AppendLookup into a fresh list.
func (ix *SelectIndex) Lookup(v Value) ([]RowID, LookupStats, error) {
	return ix.AppendLookup(nil, v)
}

// AppendLookup appends to dst the rowids whose indexed value equals v, in
// ascending rowid order: the tree's, then the tail's by the summary scan.
// It holds two pages of RAM: one the tree's node pages and the tail's
// positive Keys pages are read into in turn, and the summary iterator's,
// where each filter is tested in place. Given the capacity, it allocates
// only the probe key.
func (ix *SelectIndex) AppendLookup(dst []RowID, v Value) ([]RowID, LookupStats, error) {
	key := Key(v)
	out := dst
	var st LookupStats
	buf := ix.keys.PageBuf()
	defer logstore.PutPageBuf(buf)
	if ix.tree != nil {
		var err error
		if out, st.TreePages, err = ix.tree.appendRange(out, key, key, *buf); err != nil {
			return nil, st, err
		}
	}
	// match appends the rowids of page's postings under key.
	match := func(page logstore.PageView) error {
		for {
			r, ok := page.Next()
			if !ok {
				return nil
			}
			e, err := decodeEntry(r)
			if err != nil {
				return err
			}
			if string(e.key) == string(key) {
				out = append(out, e.rid)
			}
		}
	}

	// Scan the summary log; each summary is a Keys page's filter.
	st.SummaryPages = ix.keys.SummaryPages()
	if err := ix.keys.Summaries(func(p int, sum []byte) error {
		f, err := bloom.ViewOf(sum)
		if err != nil || !f.Test(key) {
			return err
		}
		page, err := ix.keys.ReadPage(p, *buf)
		if err != nil {
			return err
		}
		st.KeyPagesRead++
		before := len(out)
		if err := match(page); err != nil {
			return err
		}
		if len(out) == before {
			st.FalseReads++
		}
		return nil
	}); err != nil {
		return nil, st, err
	}
	// Unflushed postings live in RAM: no I/O to check them.
	if err := match(ix.keys.Unflushed()); err != nil {
		return nil, st, err
	}
	st.Matches = len(out) - len(dst)
	return out, st, nil
}

// AppendLookupRange appends to dst the rowids whose indexed value v
// satisfies lo <= v <= hi (byte order of the canonical encoding),
// ascending by rowid. The tree answers in O(height + matching leaves),
// its rowids sorted afterwards; Bloom summaries cannot prune range
// predicates, so the tail is scanned whole.
func (ix *SelectIndex) AppendLookupRange(dst []RowID, lo, hi Value) ([]RowID, LookupStats, error) {
	loKey, hiKey := Key(lo), Key(hi)
	out := dst
	var st LookupStats
	if ix.tree != nil {
		buf := ix.keys.PageBuf()
		var err error
		out, st.TreePages, err = ix.tree.appendRange(out, loKey, hiKey, *buf)
		logstore.PutPageBuf(buf)
		if err != nil {
			return nil, st, err
		}
		slices.Sort(out[len(dst):])
	}
	st.KeyPagesRead = ix.keys.Pages()
	it := ix.keys.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		e, err := decodeEntry(rec)
		if err != nil {
			return nil, st, err
		}
		if string(e.key) >= string(loKey) && string(e.key) <= string(hiKey) {
			out = append(out, e.rid)
		}
	}
	if err := it.Err(); err != nil {
		return nil, st, err
	}
	st.Matches = len(out) - len(dst)
	return out, st, nil
}

// Fold parameters of DB.Flush: the RAM of the tail's sort (runs of four
// pages, merged eight at a time).
const (
	foldRunPages = 4
	foldFanIn    = 8
)

// foldDue reports whether the flushed tail has as many Keys pages as the
// tree has leaves (always, once the tail holds a page and there is no
// tree yet). Folding then at least doubles the tree, so the total fold
// work stays O(n log n).
func (ix *SelectIndex) foldDue() bool {
	leaves := 0
	if ix.tree != nil {
		leaves = ix.tree.Leaves()
	}
	return ix.keys.Pages() > 0 && ix.keys.Pages() >= leaves
}

// leafFold yields the old tree's leaf entries, the structure a
// reorganization folds the tail into, read into a page of RAM taken at
// the merge's first read. It is a field of the SelectIndex, so handing it
// to the sort allocates nothing.
type leafFold struct {
	c    treeCursor
	keys *logstore.Log // whose pool the page comes from
	buf  *[]byte
}

func (f *leafFold) Next() ([]byte, bool, error) {
	if f.buf == nil {
		f.buf = f.keys.PageBuf()
		f.c.buf = *f.buf
	}
	return f.c.next()
}

// release hands the page back and forgets the tree.
func (f *leafFold) release() {
	if f.buf != nil {
		logstore.PutPageBuf(f.buf)
	}
	*f = leafFold{}
}

// Reorganize folds the tail into the tree using only log structures, as
// the tutorial's scalability step prescribes. The tail is sorted into
// runs and merged (runPages and fanIn bound the sort's RAM); the sort's
// final merge folds in the old tree's leaves — on equal keys the old
// entries first, so rowids stay ascending — and feeds a new tree built
// bottom-up. Once that tree is complete the sort's runs are
// dropped, and then the old tree and the tail's logs, and an empty tail
// is started. A fold that fails before the old tree's drop leaves the
// index as it was and frees every block it wrote; one that fails in that
// drop or a later one has landed, and leaves only the block whose free
// failed.
func (ix *SelectIndex) Reorganize(runPages, fanIn int) error {
	if err := ix.Flush(); err != nil {
		return err
	}
	if ix.keys.Len() == 0 {
		return nil
	}
	// The old tree's leaves are the structure the sort folds into.
	var leaves logstore.Source
	if ix.tree != nil {
		ix.fold = leafFold{c: treeCursor{t: ix.tree, leaf: -1}, keys: ix.keys}
		leaves = &ix.fold
	}
	it := ix.keys.Iter()
	sorted, err := logstore.SortStream(ix.table.Alloc(), leaves, func() ([]byte, bool, error) {
		rec, _, ok := it.Next()
		return rec, ok, it.Err()
	}, entryLess, runPages, fanIn)
	if err != nil {
		ix.fold.release()
		return err
	}
	tree, err := buildTree(ix.table.Alloc(), func() (keyEntry, bool, error) {
		rec, ok := sorted.Next()
		if !ok {
			return keyEntry{}, false, sorted.Err()
		}
		e, err := decodeEntry(rec)
		return e, err == nil, err
	})
	ix.fold.release()
	if err = errors.Join(err, sorted.Drop()); err != nil {
		if tree != nil {
			err = errors.Join(err, tree.Drop())
		}
		return err
	}
	old, keys := ix.tree, ix.keys
	ix.tree = tree
	ix.newTail()
	if old != nil {
		err = errors.Join(err, old.Drop())
	}
	return errors.Join(err, keys.Drop())
}

// entryLess orders encoded index entries by key. The fold's sort calls it
// N log N times, so it reads the key in place — the bytes between the
// length prefix and the rowid — without decodeEntry's checks.
func entryLess(a, b []byte) bool { return string(entryKey(a)) < string(entryKey(b)) }

// entryKey is the key of an encoded entry; empty for a record too short
// to hold one.
func entryKey(rec []byte) []byte {
	if len(rec) < 6 {
		return nil
	}
	return rec[2 : len(rec)-4]
}
