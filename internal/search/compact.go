package search

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"pds/internal/logstore"
)

// This file implements step 3 of the tutorial's framework for the search
// engine: timely reorganization of the sequential bucket chains into a
// more efficient structure, itself built only from sequential writes.
//
// Reorganization externally sorts the postings indexed since the last one
// by (term ascending, docid DESCENDING) — stable, log-only — merges them
// with the previous compact pages in one pass, and rewrites the result as
// densely packed "compact" pages. A small in-RAM directory (last term of
// each page) routes a query keyword to exactly the pages holding its
// postings, instead of a whole hash-bucket chain shared with other terms.
// Documents indexed after a reorganization go to fresh bucket chains;
// since docids only grow, a cursor serves chain postings first and compact
// postings second, and the merged stream stays strictly docid-descending.

// compact page layout: u16 count | count × triple (same triple encoding as
// bucket pages, without the chain pointer).
const compactPageHeader = 2

// compactIndex is the reorganized posting store.
type compactIndex struct {
	pw *logstore.PageWriter
	// dir[i] is the last (greatest) term on logical page i.
	dir []string
}

// Reorganize merges the postings indexed since the last reorganization
// into the compact index, then resets the bucket chains and frees the old
// blocks. Only that delta is sorted: every chain docid exceeds every
// compact docid, so the sorted delta and the old compact pages merge in
// one pass into exactly the stream a sort of everything would give.
// runPages and fanIn bound the external sort's RAM, as in the tutorial's
// reorganization step; the merge holds one page of RAM for each of the
// delta, the old compact page and the page being packed. A
// reorganization that fails before its switch record lands leaves the
// engine as it was and frees every block it wrote.
func (e *Engine) Reorganize(runPages, fanIn int) error {
	if err := e.Flush(); err != nil {
		return err
	}
	ci, sorted, err := e.mergeDelta(runPages, fanIn)
	if err != nil {
		return err
	}
	defer sorted.Drop()

	// Swap in, then free the old chains and old compact index. In durable
	// mode the commit record between the two is the atomic switch point
	// (DESIGN §11): until it lands the old structure is what recovery
	// restores (the half-built compact pages are reclaimed as unowned), and
	// once it lands the old blocks are garbage whether or not the drops
	// below complete. A commit whose record did not land puts the old
	// structure back.
	oldPW, oldCompact, oldHeads := e.pw, e.compact, e.heads
	e.pw = logstore.NewPageWriter(oldPW.Alloc())
	e.compact = ci
	e.heads = make([]int32, e.nbuckets)
	for b := range e.heads {
		e.heads[b] = -1
	}
	if e.j != nil {
		seq := e.j.Seq()
		if err := e.j.Commit(e.manifest()); err != nil {
			if e.j.Seq() == seq {
				e.pw, e.compact, e.heads = oldPW, oldCompact, oldHeads
				return errors.Join(err, ci.pw.Drop())
			}
			return err
		}
	}
	err = oldPW.Drop()
	if oldCompact != nil {
		err = errors.Join(err, oldCompact.pw.Drop())
	}
	return err
}

// mergeDelta builds the new compact index: it gathers the chain postings
// into a temporary log (sequential writes only; a triple is encoded on a
// bucket page exactly as in the log record, so each goes from the page
// image straight into the log), sorts that delta by (term asc, docid
// desc), and merges it with the old compact pages, packing the merged
// stream into new compact pages and recording the directory. The merge
// trusts the old index's order but checks it: a record that does not
// come strictly after the one packed before it is ErrCompactOrder. The
// caller drops the sorted delta once the old structure is gone. A
// failure frees every block mergeDelta wrote.
func (e *Engine) mergeDelta(runPages, fanIn int) (_ *compactIndex, _ *logstore.Log, err error) {
	alloc := e.pw.Alloc()
	tmp := logstore.NewLog(alloc)
	ci := &compactIndex{pw: logstore.NewPageWriter(alloc)}
	var sorted *logstore.Log
	defer func() {
		if err != nil {
			err = errors.Join(err, tmp.Drop(), ci.pw.Drop())
			if sorted != nil {
				err = errors.Join(err, sorted.Drop())
			}
		}
	}()
	// One page of RAM walks the chains and then reads the old compact
	// pages; another is the compact page being packed.
	walk, pack := e.pw.PageBuf(), e.pw.PageBuf()
	defer logstore.PutPageBuf(walk)
	defer logstore.PutPageBuf(pack)

	for b := 0; b < e.nbuckets; b++ {
		next := e.heads[b]
		for next >= 0 {
			img, err := readPage(e.pw.Chip(), int(next), walk)
			if err != nil {
				return nil, nil, err
			}
			prev, body, err := bucketPage(img)
			if err != nil {
				return nil, nil, err
			}
			for len(body) > 0 {
				var rec []byte
				rec, body = nextTriple(body)
				if _, err := tmp.Append(rec); err != nil {
					return nil, nil, err
				}
			}
			next = prev
		}
	}
	if sorted, err = logstore.Sort(tmp, tripleLess, runPages, fanIn); err != nil {
		return nil, nil, err
	}
	if err := tmp.Drop(); err != nil {
		return nil, nil, err
	}

	// The chip copies each page it programs, so one page of RAM serves
	// every image; last is the last triple packed, where it lies in it.
	page := (*pack)[:compactPageHeader]
	cnt := 0
	var last []byte
	flushPage := func() error {
		if cnt == 0 {
			return nil
		}
		binary.LittleEndian.PutUint16(page[0:2], uint16(cnt))
		if _, err := ci.pw.Write(page); err != nil {
			return err
		}
		ci.dir = append(ci.dir, string(tripleTerm(last)))
		page = page[:compactPageHeader]
		cnt = 0
		return nil
	}
	emit := func(rec []byte) error {
		if last != nil && !tripleLess(last, rec) {
			return fmt.Errorf("%w: %q doc %d after %q doc %d", ErrCompactOrder,
				tripleTerm(rec), tripleDoc(rec), tripleTerm(last), tripleDoc(last))
		}
		if len(page)+len(rec) > e.pageSize {
			if err := flushPage(); err != nil {
				return err
			}
		}
		page = append(page, rec...)
		cnt++
		last = page[len(page)-len(rec):]
		return nil
	}

	it := sorted.Iter()
	nextDelta := func() ([]byte, error) {
		rec, _, ok := it.Next()
		if !ok {
			return nil, it.Err()
		}
		return rec, checkTripleRec(rec)
	}
	old := compactStream{ci: e.compact, buf: walk}
	d, err := nextDelta()
	if err != nil {
		return nil, nil, err
	}
	o, err := old.next()
	if err != nil {
		return nil, nil, err
	}
	for d != nil || o != nil {
		if d != nil && (o == nil || tripleLess(d, o)) {
			if err := emit(d); err != nil {
				return nil, nil, err
			}
			d, err = nextDelta()
		} else {
			if err := emit(o); err != nil {
				return nil, nil, err
			}
			o, err = old.next()
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if err := flushPage(); err != nil {
		return nil, nil, err
	}
	return ci, sorted, nil
}

// compactStream yields the triples of a compact index (nil for none) in
// page order, reading each page once into buf.
type compactStream struct {
	ci   *compactIndex
	buf  *[]byte
	page int
	body []byte
}

// next returns the next triple, where it lies in buf, or nil at the end.
func (s *compactStream) next() ([]byte, error) {
	for len(s.body) == 0 {
		if s.ci == nil || s.page == s.ci.pw.Pages() {
			return nil, nil
		}
		body, err := s.ci.page(s.page, s.buf)
		if err != nil {
			return nil, err
		}
		s.body = body
		s.page++
	}
	var rec []byte
	rec, s.body = nextTriple(s.body)
	return rec, nil
}

// CompactPages returns the size of the reorganized structure (0 if the
// engine was never reorganized).
func (e *Engine) CompactPages() int {
	if e.compact == nil {
		return 0
	}
	return e.compact.pw.Pages()
}

// page reads one compact page into buf (see readPage) and returns
// its checked triples (page order = docid descending within each term).
func (c *compactIndex) page(logical int, buf *[]byte) ([]byte, error) {
	phys, err := c.pw.PhysPage(logical)
	if err != nil {
		return nil, err
	}
	img, err := readPage(c.pw.Chip(), phys, buf)
	if err != nil {
		return nil, err
	}
	if len(img) < compactPageHeader {
		return nil, fmt.Errorf("search: short compact page")
	}
	cnt := int(binary.LittleEndian.Uint16(img[0:2]))
	return tripleBody(img, compactPageHeader, cnt, "compact")
}

// firstPageFor returns the first logical compact page that may contain
// term, or -1.
func (c *compactIndex) firstPageFor(term string) int {
	i := sort.SearchStrings(c.dir, term)
	if i == len(c.dir) {
		return -1
	}
	return i
}

// triple record encoding for the temporary sort log: u8 len | term |
// u32 doc | u16 weight.
func appendTriple(dst []byte, tr triple) []byte {
	dst = append(dst, byte(len(tr.term)))
	dst = append(dst, tr.term...)
	var num [6]byte
	binary.LittleEndian.PutUint32(num[0:4], uint32(tr.doc))
	binary.LittleEndian.PutUint16(num[4:6], tr.weight)
	return append(dst, num[:]...)
}

// wholeTriple reports whether rec is exactly one encoded triple.
func wholeTriple(rec []byte) bool { return len(rec) >= 1 && len(rec) == 1+int(rec[0])+6 }

// checkTripleRec is wholeTriple as an error.
func checkTripleRec(rec []byte) error {
	switch {
	case len(rec) < 1:
		return fmt.Errorf("search: empty triple record")
	case !wholeTriple(rec):
		return fmt.Errorf("search: corrupt triple record")
	}
	return nil
}

// tripleLess orders encoded triple records by (term ascending, docid
// descending), comparing the bytes where they lie. A corrupt record is
// before nothing and nothing is before it.
func tripleLess(a, b []byte) bool {
	if !wholeTriple(a) || !wholeTriple(b) {
		return false
	}
	if c := bytes.Compare(tripleTerm(a), tripleTerm(b)); c != 0 {
		return c < 0
	}
	return tripleDoc(a) > tripleDoc(b)
}
