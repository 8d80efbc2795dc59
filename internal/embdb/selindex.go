package embdb

import (
	"encoding/binary"
	"fmt"

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

// SelectIndex is the tutorial's log-only selection index on one column:
//
//	Log1 "Keys":          (key, rowid) postings in insertion order;
//	Log2 "Bloom Filters": one Bloom summary per flushed Keys page.
//
// A lookup scans the (much smaller) summary log and touches only the Keys
// pages whose filter answers positively — the "summary scan" that costs a
// handful of I/Os where the full table scan costs hundreds.
type SelectIndex struct {
	table  *Table
	col    string
	colIdx int
	keys   *logstore.Log
	sums   *logstore.Log
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
	ix := &SelectIndex{
		table:       table,
		col:         col,
		colIdx:      ci,
		keys:        logstore.NewLog(table.Alloc()),
		sums:        logstore.NewLog(table.Alloc()),
		SummaryBits: 16,
	}
	ix.keys.OnFlush(ix.flushSummary)
	return ix, nil
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

// KeysPages returns the number of flushed Keys pages.
func (ix *SelectIndex) KeysPages() int { return ix.keys.Pages() }

// SummaryPages returns the number of flushed summary pages.
func (ix *SelectIndex) SummaryPages() int { return ix.sums.Pages() }

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
	if err := ix.keys.Drop(); err != nil {
		return err
	}
	return ix.sums.Drop()
}

// LookupStats reports the work a summary-scan lookup performed.
type LookupStats struct {
	SummaryPages int // summary pages scanned
	KeyPagesRead int // Keys pages read (filter positives)
	FalseReads   int // positives that yielded no match
	Matches      int // postings found
}

// Lookup returns the rowids whose indexed value equals v, in ascending
// rowid order, using the summary scan. It holds two pages of RAM: the
// summary iterator's, where each filter is tested in place, and one for
// the Keys pages that answer positively.
func (ix *SelectIndex) Lookup(v Value) ([]RowID, LookupStats, error) {
	key := Key(v)
	var out []RowID
	var st LookupStats
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
	buf := ix.keys.PageBuf()
	defer logstore.PutPageBuf(buf)

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
// Bloom summaries cannot prune range predicates, so this scans the whole
// Keys log — the cost profile that motivates reorganizing hot columns into
// a TreeIndex, whose Range runs in O(height + matching leaves).
func (ix *SelectIndex) LookupRange(lo, hi Value) ([]RowID, LookupStats, error) {
	loKey, hiKey := Key(lo), Key(hi)
	var out []RowID
	var st LookupStats
	st.SummaryPages = 0
	st.KeyPagesRead = ix.keys.Pages()
	inRange := func(k []byte) bool {
		return string(k) >= string(loKey) && string(k) <= string(hiKey)
	}
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
		if inRange(e.key) {
			out = append(out, e.rid)
		}
	}
	if err := it.Err(); err != nil {
		return nil, st, err
	}
	st.Matches = len(out)
	return out, st, nil
}

// Reorganize transforms the sequential index into a B-tree-like TreeIndex
// using only log structures (external sort into runs, then a bottom-up key
// hierarchy), as the tutorial's scalability step prescribes. runPages and
// fanIn bound the RAM used by the sort. The sequential index remains valid;
// the caller typically drops it once the tree is adopted.
func (ix *SelectIndex) Reorganize(runPages, fanIn int) (*TreeIndex, error) {
	if err := ix.Flush(); err != nil {
		return nil, err
	}
	less := func(a, b []byte) bool {
		ea, errA := decodeEntry(a)
		eb, errB := decodeEntry(b)
		if errA != nil || errB != nil {
			return false
		}
		return string(ea.key) < string(eb.key)
	}
	sorted, err := logstore.Sort(ix.keys, less, runPages, fanIn)
	if err != nil {
		return nil, err
	}
	defer sorted.Drop()
	return BuildTree(ix.table.Alloc(), sorted)
}
