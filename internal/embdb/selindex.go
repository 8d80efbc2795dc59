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
// enter a sequential tail of two logs,
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
	tree *TreeIndex
	keys *logstore.Log
	sums *logstore.Log
	// pageKeys accumulates the keys of the Keys page being filled, to
	// build its summary at flush time (one page worth of RAM).
	pageKeys [][]byte
	entries  int
	// SummaryBits is the Bloom budget in bits per key (default 16 ≈ the
	// paper's 2 bytes/key). Change it before the first insertion; the
	// ablation experiment sweeps it.
	SummaryBits int
}

// summary log record: u32 keysPage | marshaled bloom filter.

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
	ix.keys = logstore.NewLog(ix.table.Alloc())
	ix.sums = logstore.NewLog(ix.table.Alloc())
	ix.keys.OnFlush(ix.flushSummary)
	ix.pageKeys = ix.pageKeys[:0]
}

// flushSummary builds the Bloom summary of a freshly flushed Keys page.
func (ix *SelectIndex) flushSummary(page int) error {
	f := bloom.NewPageSummaryBits(len(ix.pageKeys), ix.SummaryBits)
	for _, k := range ix.pageKeys {
		f.Add(k)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	rec := make([]byte, 4+len(blob))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(page))
	copy(rec[4:], blob)
	if _, err := ix.sums.Append(rec); err != nil {
		return err
	}
	ix.pageKeys = ix.pageKeys[:0]
	return nil
}

// Col returns the indexed column name.
func (ix *SelectIndex) Col() string { return ix.col }

// Len returns the number of postings.
func (ix *SelectIndex) Len() int { return ix.entries }

// KeysPages returns the number of flushed Keys pages of the tail.
func (ix *SelectIndex) KeysPages() int { return ix.keys.Pages() }

// SummaryPages returns the number of flushed summary pages of the tail.
func (ix *SelectIndex) SummaryPages() int { return ix.sums.Pages() }

// Tree returns the tree the index has folded its postings into, nil
// before the first fold. It is the index's own: read its shape, never
// drop it.
func (ix *SelectIndex) Tree() *TreeIndex { return ix.tree }

// Add indexes one tuple. Call it with the value and rowid returned by the
// table insert; the DB wrapper does this automatically.
func (ix *SelectIndex) Add(v Value, rid RowID) error {
	key := Key(v)
	// Append first: if this append flushes the previous Keys page, its
	// summary must be built before the new key joins pageKeys.
	if _, err := ix.keys.Append(encodeEntry(key, rid)); err != nil {
		return err
	}
	ix.pageKeys = append(ix.pageKeys, key)
	ix.entries++
	return nil
}

// Flush persists pending postings and their summary.
func (ix *SelectIndex) Flush() error {
	if err := ix.keys.Flush(); err != nil {
		return err
	}
	return ix.sums.Flush()
}

// Drop frees the index's flash blocks.
func (ix *SelectIndex) Drop() error {
	err := errors.Join(ix.keys.Drop(), ix.sums.Drop())
	if ix.tree != nil {
		err = errors.Join(err, ix.tree.Drop())
	}
	return err
}

// LookupStats reports the work a lookup performed.
type LookupStats struct {
	TreePages    int // tree node pages read
	SummaryPages int // summary pages scanned
	KeyPagesRead int // Keys pages read (filter positives)
	FalseReads   int // positives that yielded no match
	Matches      int // postings found
}

// Lookup returns the rowids whose indexed value equals v, in ascending
// rowid order: the tree's, then the tail's by the summary scan. It holds
// two pages of RAM: one the tree's node pages and the tail's positive
// Keys pages are read into in turn, and the summary iterator's, where
// each filter is tested in place.
func (ix *SelectIndex) Lookup(v Value) ([]RowID, LookupStats, error) {
	key := Key(v)
	var out []RowID
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

	// Scan the summary log; each record names a Keys page and its filter.
	st.SummaryPages = ix.sums.Pages()
	it := ix.sums.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		if len(rec) < 4 {
			return nil, st, fmt.Errorf("embdb: corrupt summary record")
		}
		f, err := bloom.ViewOf(rec[4:])
		if err != nil {
			return nil, st, err
		}
		if !f.Test(key) {
			continue
		}
		page, err := ix.keys.ReadPage(int(binary.LittleEndian.Uint32(rec[0:4])), *buf)
		if err != nil {
			return nil, st, err
		}
		st.KeyPagesRead++
		before := len(out)
		if err := match(page); err != nil {
			return nil, st, err
		}
		if len(out) == before {
			st.FalseReads++
		}
	}
	if err := it.Err(); err != nil {
		return nil, st, err
	}
	// Unflushed postings live in RAM: no I/O to check them.
	if err := match(ix.keys.Unflushed()); err != nil {
		return nil, st, err
	}
	st.Matches = len(out)
	return out, st, nil
}

// LookupRange returns the rowids whose indexed value v satisfies
// lo <= v <= hi (byte order of the canonical encoding), ascending by rowid.
// The tree answers in O(height + matching leaves), its rowids sorted
// afterwards; Bloom summaries cannot prune range predicates, so the tail
// is scanned whole.
func (ix *SelectIndex) LookupRange(lo, hi Value) ([]RowID, LookupStats, error) {
	loKey, hiKey := Key(lo), Key(hi)
	var out []RowID
	var st LookupStats
	if ix.tree != nil {
		buf := ix.keys.PageBuf()
		var err error
		out, st.TreePages, err = ix.tree.appendRange(out, loKey, hiKey, *buf)
		logstore.PutPageBuf(buf)
		if err != nil {
			return nil, st, err
		}
		slices.Sort(out)
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
	st.Matches = len(out)
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

// Reorganize folds the tail into the tree using only log structures, as
// the tutorial's scalability step prescribes. The tail is sorted into
// runs and merged (runPages and fanIn bound the sort's RAM); the sorted
// tail and the old tree's leaves are merged in one pass — on equal keys
// the old entries first, so rowids stay ascending — into a new tree built
// bottom-up. Only once that tree is complete are the old tree and the
// tail's logs dropped and an empty tail started. A fold that fails before
// then leaves the index as it was and frees every block it wrote; one
// that fails in a drop has landed, and leaves only the block whose erase
// failed.
func (ix *SelectIndex) Reorganize(runPages, fanIn int) error {
	if err := ix.Flush(); err != nil {
		return err
	}
	if ix.keys.Len() == 0 {
		return nil
	}
	sorted, err := logstore.Sort(ix.keys, entryLess, runPages, fanIn)
	if err != nil {
		return err
	}
	buf := ix.keys.PageBuf()
	tree, err := buildTree(ix.table.Alloc(), mergeEntries(ix.tree, sorted, *buf))
	logstore.PutPageBuf(buf)
	if err != nil {
		return errors.Join(err, sorted.Drop())
	}
	old, keys, sums := ix.tree, ix.keys, ix.sums
	ix.tree = tree
	ix.newTail()
	err = sorted.Drop()
	if old != nil {
		err = errors.Join(err, old.Drop())
	}
	return errors.Join(err, keys.Drop(), sums.Drop())
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

// mergeEntries yields, in key order, the entries of old (nil for none)
// and of sorted, a log of entries in key order; on equal keys old's come
// first. Old's leaves are read into buf, a page of RAM the caller holds.
// An entry's key is valid until the following call.
func mergeEntries(old *TreeIndex, sorted *logstore.Log, buf []byte) func() (keyEntry, bool, error) {
	var c treeCursor
	if old != nil {
		c = treeCursor{t: old, buf: buf, leaf: -1}
	}
	it := sorted.Iter()
	var o, n keyEntry
	var oOK, nOK bool
	// The side whose head was yielded last moves on at the next call.
	advOld, advNew := old != nil, true
	return func() (keyEntry, bool, error) {
		var err error
		if advOld {
			if o.key, o.rid, oOK, err = c.next(); err != nil {
				return keyEntry{}, false, err
			}
		}
		if advNew {
			rec, _, ok := it.Next()
			if nOK = ok; ok {
				if n, err = decodeEntry(rec); err != nil {
					return keyEntry{}, false, err
				}
			} else if err = it.Err(); err != nil {
				return keyEntry{}, false, err
			}
		}
		advOld = oOK && (!nOK || string(o.key) <= string(n.key))
		advNew = !advOld && nOK
		switch {
		case advOld:
			return o, true, nil
		case advNew:
			return n, true, nil
		}
		return keyEntry{}, false, nil
	}
}
