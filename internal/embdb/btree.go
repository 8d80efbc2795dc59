package embdb

import (
	"bytes"
	"encoding/binary"
	"fmt"

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
// The structure is immutable once built; a SelectIndex collects new
// insertions in its sequential tail and merges them in at its next fold.
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

// decodeNodePage copies every entry out of a node page: the in-place
// update baseline's decoder. The tree reads its pages through viewNode.
func decodeNodePage(img []byte) ([]nodeEntry, error) {
	v, err := viewNode(img)
	if err != nil {
		return nil, err
	}
	out := make([]nodeEntry, 0, v.left)
	for {
		key, ptr, ok := v.next()
		if !ok {
			return out, nil
		}
		out = append(out, nodeEntry{key: append([]byte(nil), key...), ptr: ptr})
	}
}

// nodeView iterates the entries of one checked node page where they lie.
type nodeView struct {
	img  []byte
	off  int // offset in img of the next entry
	left int // entries next has yet to return
}

// viewNode checks that every entry of a node page lies inside it and
// returns a view from its first entry.
func viewNode(img []byte) (nodeView, error) {
	if len(img) < nodePageHeader {
		return nodeView{}, fmt.Errorf("embdb: short node page (%d bytes)", len(img))
	}
	cnt := int(binary.LittleEndian.Uint16(img[0:2]))
	off := nodePageHeader
	for i := 0; i < cnt; i++ {
		if off+2 > len(img) {
			return nodeView{}, fmt.Errorf("embdb: corrupt node page")
		}
		off += 2 + int(binary.LittleEndian.Uint16(img[off:off+2])) + 4
		if off > len(img) {
			return nodeView{}, fmt.Errorf("embdb: corrupt node page")
		}
	}
	return nodeView{img: img, off: nodePageHeader, left: cnt}, nil
}

// next returns the next entry; the key is a view into the page.
func (v *nodeView) next() (key []byte, ptr uint32, ok bool) {
	e, ok := v.nextEntry()
	if !ok {
		return nil, 0, false
	}
	return e[2 : len(e)-4], binary.LittleEndian.Uint32(e[len(e)-4:]), true
}

// nextEntry returns the next entry as it is encoded, u16 keyLen | key |
// u32 ptr, a view into the page.
func (v *nodeView) nextEntry() ([]byte, bool) {
	if v.left == 0 {
		return nil, false
	}
	v.left--
	at := v.off
	v.off += 2 + int(binary.LittleEndian.Uint16(v.img[at:at+2])) + 4
	return v.img[at:v.off], true
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

// buildTree constructs a TreeIndex from the entries next yields in key
// order. Each entry's key need only stay valid until the following call:
// it is copied into the level's page before next is called again. A
// failed build frees every block it wrote.
func buildTree(alloc *flash.Allocator, next func() (keyEntry, bool, error)) (_ *TreeIndex, err error) {
	t := &TreeIndex{}
	levels := []*treeBuilder{newTreeBuilder(alloc)}
	defer func() {
		if err != nil {
			for _, lb := range levels {
				lb.pw.Drop()
			}
		}
	}()

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

	for {
		e, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := add(0, nodeEntry{key: e.key, ptr: uint32(e.rid)}); err != nil {
			return nil, err
		}
		t.entries++
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

// Leaves returns the number of leaf pages.
func (t *TreeIndex) Leaves() int { return t.levels[0].Pages() }

// Drop frees every block of every level.
func (t *TreeIndex) Drop() error {
	for _, pw := range t.levels {
		if err := pw.Drop(); err != nil {
			return err
		}
	}
	return nil
}

// treeCursor walks the leaves of a tree in key order. Every node page it
// visits is read into buf, one page of RAM the caller holds, and scanned
// where it lies.
type treeCursor struct {
	t     *TreeIndex
	buf   []byte
	leaf  int      // logical page of the loaded leaf
	v     nodeView // what is left of it
	pages int      // node pages read
}

// readNode reads the logical page of one level into c.buf (one page I/O).
func (c *treeCursor) readNode(lvl, logical int) (nodeView, error) {
	w := c.t.levels[lvl]
	phys, err := w.PhysPage(logical)
	if err != nil {
		return nodeView{}, err
	}
	n, err := w.Chip().ReadPage(phys, c.buf)
	if err != nil {
		return nodeView{}, err
	}
	c.pages++
	return viewNode(c.buf[:n])
}

// seek descends from the root to the first leaf that may hold key and
// positions the cursor before that leaf's first entry >= key; ok is false
// when key exceeds every key of the tree.
func (c *treeCursor) seek(key []byte) (ok bool, err error) {
	lvl, page := c.t.rootLevel, c.t.rootPage
	for ; lvl > 0; lvl-- {
		v, err := c.readNode(lvl, page)
		if err != nil {
			return false, err
		}
		for {
			k, ptr, more := v.next()
			if !more {
				return false, nil
			}
			if bytes.Compare(k, key) >= 0 {
				page = int(ptr)
				break
			}
		}
	}
	if c.v, err = c.readNode(0, page); err != nil {
		return false, err
	}
	c.leaf = page
	for {
		at := c.v
		k, _, more := c.v.next()
		if !more || bytes.Compare(k, key) >= 0 {
			c.v = at
			return true, nil
		}
	}
}

// next returns the next leaf entry in key order, reading the following
// leaf when the loaded one is exhausted. A leaf entry is laid out as an
// index entry (see encodeEntry), so it is returned as one, a view into
// c.buf: the leaves are a SortStream input where they lie.
func (c *treeCursor) next() (rec []byte, ok bool, err error) {
	for c.v.left == 0 {
		if c.leaf+1 >= c.t.Leaves() {
			return nil, false, nil
		}
		c.leaf++
		if c.v, err = c.readNode(0, c.leaf); err != nil {
			return nil, false, err
		}
	}
	rec, ok = c.v.nextEntry()
	return rec, ok, nil
}

// appendRange appends to dst, in key order, the rowids of the entries
// with lo <= key <= hi, reading node pages into buf. It returns the node
// pages read: the height, plus the leaves the range spans, plus the leaf
// after them when the range ends on a leaf boundary.
func (t *TreeIndex) appendRange(dst []RowID, lo, hi, buf []byte) ([]RowID, int, error) {
	if t.entries == 0 || bytes.Compare(lo, hi) > 0 {
		return dst, 0, nil
	}
	c := treeCursor{t: t, buf: buf}
	ok, err := c.seek(lo)
	for ok {
		var rec []byte
		if rec, ok, err = c.next(); !ok {
			break
		}
		var e keyEntry
		if e, err = decodeEntry(rec); err != nil || bytes.Compare(e.key, hi) > 0 {
			break
		}
		dst = append(dst, e.rid)
	}
	return dst, c.pages, err
}
