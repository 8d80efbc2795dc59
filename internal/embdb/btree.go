package embdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"pds/internal/flash"
	"pds/internal/logstore"
)

// TreeIndex is the B-tree-like structure produced by reorganizing a
// sequential index, as in the tutorial's scalability step:
//
//  1. the (key, rowid) pairs are sorted into runs and merged — all runs are
//     plain logs (see logstore.Sort);
//  2. a key hierarchy is built bottom-up while the sorted log streams by,
//     writing every level strictly sequentially.
//
// Each level owns its own PageWriter, so leaves occupy consecutive logical
// pages and a range scan walks them left to right with one page of RAM.
// The structure is immutable once built; new insertions go to a fresh
// sequential index that is merged in at the next reorganization.
type TreeIndex struct {
	levels    []*logstore.PageWriter // levels[0] = leaves, top = root level
	rootLevel int
	rootPage  int // logical page within levels[rootLevel]
	entries   int
}

// Node page layout:
//
//	u16 count | count × { u16 keyLen | key | u32 ptr }
//
// In leaves ptr is a RowID; in internal nodes it is the logical page number
// of the child within the level below, and the entry key is the largest key
// of that child's subtree.
type nodeEntry struct {
	key []byte
	ptr uint32
}

const nodePageHeader = 2

func nodeEntrySize(key []byte) int { return 2 + len(key) + 4 }

func appendNodeEntry(page []byte, e nodeEntry) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(e.key)))
	page = append(page, b[:]...)
	page = append(page, e.key...)
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], e.ptr)
	return append(page, p[:]...)
}

func decodeNodePage(img []byte) ([]nodeEntry, error) {
	if len(img) < nodePageHeader {
		return nil, fmt.Errorf("embdb: short node page (%d bytes)", len(img))
	}
	cnt := int(binary.LittleEndian.Uint16(img[0:2]))
	out := make([]nodeEntry, 0, cnt)
	off := nodePageHeader
	for i := 0; i < cnt; i++ {
		if off+2 > len(img) {
			return nil, fmt.Errorf("embdb: corrupt node page")
		}
		n := int(binary.LittleEndian.Uint16(img[off : off+2]))
		off += 2
		if off+n+4 > len(img) {
			return nil, fmt.Errorf("embdb: corrupt node page")
		}
		key := make([]byte, n)
		copy(key, img[off:off+n])
		off += n
		out = append(out, nodeEntry{key: key, ptr: binary.LittleEndian.Uint32(img[off : off+4])})
		off += 4
	}
	return out, nil
}

// treeBuilder assembles one level of the tree with a single page of RAM.
type treeBuilder struct {
	pw      *logstore.PageWriter
	page    []byte
	cnt     int
	lastKey []byte
	pages   int
	pgSize  int
}

func newTreeBuilder(alloc *flash.Allocator) *treeBuilder {
	return &treeBuilder{
		pw:     logstore.NewPageWriter(alloc),
		pgSize: alloc.Chip().Geometry().PageSize,
	}
}

// BuildTree constructs a TreeIndex from a log of index entries already
// sorted by key (stable, so equal keys keep ascending rowids). The sorted
// log is left intact.
func BuildTree(alloc *flash.Allocator, sorted *logstore.Log) (*TreeIndex, error) {
	t := &TreeIndex{}
	levels := []*treeBuilder{newTreeBuilder(alloc)}

	var add func(lvl int, e nodeEntry) error
	flush := func(lvl int) error {
		lb := levels[lvl]
		if lb.cnt == 0 {
			return nil
		}
		binary.LittleEndian.PutUint16(lb.page[0:2], uint16(lb.cnt))
		logical := lb.pages
		if _, err := lb.pw.Write(lb.page); err != nil {
			return err
		}
		lb.pages++
		lb.page = lb.page[:nodePageHeader] // the chip copied it
		lb.cnt = 0
		if lvl+1 == len(levels) {
			levels = append(levels, newTreeBuilder(alloc))
		}
		return add(lvl+1, nodeEntry{key: lb.lastKey, ptr: uint32(logical)})
	}
	add = func(lvl int, e nodeEntry) error {
		lb := levels[lvl]
		if lb.page == nil {
			lb.page = make([]byte, nodePageHeader, lb.pgSize)
		}
		if len(lb.page)+nodeEntrySize(e.key) > lb.pgSize {
			if err := flush(lvl); err != nil {
				return err
			}
			lb = levels[lvl]
		}
		lb.page = appendNodeEntry(lb.page, e)
		lb.cnt++
		lb.lastKey = append(lb.lastKey[:0], e.key...)
		return nil
	}

	it := sorted.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		e, err := decodeEntry(rec)
		if err != nil {
			return nil, err
		}
		// add copies the key into the level's page and lastKey before the
		// iterator moves on.
		if err := add(0, nodeEntry{key: e.key, ptr: uint32(e.rid)}); err != nil {
			return nil, err
		}
		t.entries++
	}
	if err := it.Err(); err != nil {
		return nil, err
	}

	// Finish: flush partial pages bottom-up until a level collapses to a
	// single page, which becomes the root.
	if t.entries == 0 {
		lb := levels[0]
		lb.page = make([]byte, nodePageHeader, lb.pgSize)
		binary.LittleEndian.PutUint16(lb.page[0:2], 0)
		if _, err := lb.pw.Write(lb.page); err != nil {
			return nil, err
		}
		lb.pages = 1
		t.levels = []*logstore.PageWriter{lb.pw}
		t.rootLevel, t.rootPage = 0, 0
		return t, nil
	}
	for lvl := 0; ; lvl++ {
		lb := levels[lvl]
		top := lvl == len(levels)-1
		if top && lvl > 0 && lb.pages == 0 && lb.cnt == 1 {
			// This level holds a single pointer to the real root one
			// level down; discard it.
			levels = levels[:lvl]
			break
		}
		if lb.cnt > 0 {
			if err := flush(lvl); err != nil {
				return nil, err
			}
		}
		if lvl == len(levels)-1 {
			// Flushing the top always propagates an entry upward, so
			// reaching here means the level had no buffered entries;
			// it must be a single-page root.
			break
		}
	}
	t.levels = make([]*logstore.PageWriter, len(levels))
	for i, lb := range levels {
		t.levels[i] = lb.pw
	}
	t.rootLevel = len(levels) - 1
	t.rootPage = levels[t.rootLevel].pages - 1
	return t, nil
}

// Height returns the number of levels (1 = a single leaf).
func (t *TreeIndex) Height() int { return len(t.levels) }

// Len returns the number of indexed entries.
func (t *TreeIndex) Len() int { return t.entries }

// Pages returns the total flash pages of the structure.
func (t *TreeIndex) Pages() int {
	n := 0
	for _, pw := range t.levels {
		n += pw.Pages()
	}
	return n
}

// Drop frees every block of every level.
func (t *TreeIndex) Drop() error {
	for _, pw := range t.levels {
		if err := pw.Drop(); err != nil {
			return err
		}
	}
	return nil
}

// readNode loads the logical page of one level (one page I/O).
func (t *TreeIndex) readNode(lvl, logical int) ([]nodeEntry, error) {
	phys, err := t.levels[lvl].PhysPage(logical)
	if err != nil {
		return nil, err
	}
	img, err := t.levels[lvl].Chip().Page(phys)
	if err != nil {
		return nil, err
	}
	return decodeNodePage(img)
}

// descendToLeaf walks from the root to the first leaf that may contain key,
// returning the leaf's logical page. ok=false if key exceeds every key.
func (t *TreeIndex) descendToLeaf(key []byte) (int, bool, error) {
	lvl, page := t.rootLevel, t.rootPage
	for lvl > 0 {
		entries, err := t.readNode(lvl, page)
		if err != nil {
			return 0, false, err
		}
		i := sort.Search(len(entries), func(i int) bool {
			return bytes.Compare(entries[i].key, key) >= 0
		})
		if i == len(entries) {
			return 0, false, nil
		}
		page = int(entries[i].ptr)
		lvl--
	}
	return page, true, nil
}

// Lookup returns the rowids with exactly the given encoded key, ascending.
// Cost is height page reads plus the leaf pages spanned by the key.
func (t *TreeIndex) Lookup(key []byte) ([]RowID, error) {
	var out []RowID
	it, err := t.Range(key, key)
	if err != nil {
		return nil, err
	}
	for {
		_, rid, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, rid)
	}
	return out, it.Err()
}

// LookupValue is Lookup on a Value.
func (t *TreeIndex) LookupValue(v Value) ([]RowID, error) { return t.Lookup(Key(v)) }

// RangeIter streams (key, rowid) pairs with lo <= key <= hi in key order,
// reading one leaf page of RAM at a time.
type RangeIter struct {
	t       *TreeIndex
	hi      []byte
	leaf    int
	entries []nodeEntry
	pos     int
	err     error
	done    bool
}

// Range returns an iterator over keys in [lo, hi] (inclusive, byte order).
func (t *TreeIndex) Range(lo, hi []byte) (*RangeIter, error) {
	it := &RangeIter{t: t, hi: append([]byte(nil), hi...)}
	if bytes.Compare(lo, hi) > 0 || t.entries == 0 {
		it.done = true
		return it, nil
	}
	leaf, ok, err := t.descendToLeaf(lo)
	if err != nil {
		return nil, err
	}
	if !ok {
		it.done = true
		return it, nil
	}
	entries, err := t.readNode(0, leaf)
	if err != nil {
		return nil, err
	}
	it.leaf = leaf
	it.entries = entries
	it.pos = sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].key, lo) >= 0
	})
	return it, nil
}

// Next returns the next pair; ok=false at end or error.
func (it *RangeIter) Next() ([]byte, RowID, bool) {
	if it.done || it.err != nil {
		return nil, 0, false
	}
	for it.pos >= len(it.entries) {
		it.leaf++
		if it.leaf >= it.t.levels[0].Pages() {
			it.done = true
			return nil, 0, false
		}
		entries, err := it.t.readNode(0, it.leaf)
		if err != nil {
			it.err = err
			return nil, 0, false
		}
		it.entries, it.pos = entries, 0
	}
	e := it.entries[it.pos]
	if bytes.Compare(e.key, it.hi) > 0 {
		it.done = true
		return nil, 0, false
	}
	it.pos++
	return e.key, RowID(e.ptr), true
}

// Err returns the first error the iterator hit.
func (it *RangeIter) Err() error { return it.err }
