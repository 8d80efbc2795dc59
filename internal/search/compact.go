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
// compact docid, so the sort's final merge, which folds in the old
// compact pages as its old structure, yields exactly the stream a sort of
// everything would give. runPages and fanIn bound the external sort's
// RAM, as in the tutorial's reorganization step; the final merge adds one
// page of RAM for the old compact page and one for the page being packed. A reorganization that
// fails before its switch record lands leaves the engine as it was and
// frees every block it wrote.
func (e *Engine) Reorganize(runPages, fanIn int) error {
	if err := e.Flush(); err != nil {
		return err
	}
	ci, err := e.mergeDelta(runPages, fanIn)
	if err != nil {
		return err
	}

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

// mergeDelta builds the new compact index: it walks the chain postings
// straight into an external sort by (term asc, docid desc) — a triple is
// encoded on a bucket page exactly as in a sort record, so each goes from
// the page image into the sort's RAM — whose final merge folds in the old
// compact pages, and packs the merged stream into new compact pages,
// recording the directory. The merge trusts the old index's order but
// checks it: a record that does not come strictly after the one packed
// before it is ErrCompactOrder. The sort's runs are dropped once
// the merge is done. A failure frees every block mergeDelta wrote.
func (e *Engine) mergeDelta(runPages, fanIn int) (_ *compactIndex, err error) {
	alloc := e.pw.Alloc()
	ci := &compactIndex{pw: logstore.NewPageWriter(alloc)}
	defer func() {
		if err != nil {
			err = errors.Join(err, ci.pw.Drop())
		}
	}()
	// One page of RAM walks the chains and then, in the final merge, reads
	// the old compact pages; another, taken once the sort is done, is the
	// compact page being packed.
	walk := e.pw.PageBuf()
	defer logstore.PutPageBuf(walk)

	b, next := -1, int32(-1)
	var body []byte
	chains := func() ([]byte, bool, error) {
		for len(body) == 0 {
			for next < 0 {
				if b++; b == e.nbuckets {
					return nil, false, nil
				}
				next = e.heads[b]
			}
			img, err := readPage(e.pw.Chip(), int(next), walk)
			if err != nil {
				return nil, false, err
			}
			if next, body, err = bucketPage(img); err != nil {
				return nil, false, err
			}
		}
		var rec []byte
		rec, body = nextTriple(body)
		return rec, true, nil
	}
	e.old = compactStream{ci: e.compact, buf: walk}
	defer func() { e.old = compactStream{} }() // keep neither the old index nor the page
	sorted, err := logstore.SortStream(alloc, &e.old, chains, tripleLess, runPages, fanIn)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, sorted.Drop()) }()
	pack := e.pw.PageBuf()
	defer logstore.PutPageBuf(pack)

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
	for rec, ok := sorted.Next(); ok; rec, ok = sorted.Next() {
		if err := checkTripleRec(rec); err != nil {
			return nil, err
		}
		if last != nil && !tripleLess(last, rec) {
			return nil, fmt.Errorf("%w: %q doc %d after %q doc %d", ErrCompactOrder,
				tripleTerm(rec), tripleDoc(rec), tripleTerm(last), tripleDoc(last))
		}
		if len(page)+len(rec) > e.pageSize {
			if err := flushPage(); err != nil {
				return nil, err
			}
		}
		page = append(page, rec...)
		cnt++
		last = page[len(page)-len(rec):]
	}
	if err := sorted.Err(); err != nil {
		return nil, err
	}
	if err := flushPage(); err != nil {
		return nil, err
	}
	return ci, nil
}

// compactStream yields the triples of a compact index (nil for none) in
// page order, reading each page once into buf. It is a field of the
// Engine, so handing it to the sort allocates nothing.
type compactStream struct {
	ci   *compactIndex
	buf  *[]byte
	page int
	body []byte
}

// Next returns the next triple, where it lies in buf, and false at the
// end.
func (s *compactStream) Next() ([]byte, bool, error) {
	for len(s.body) == 0 {
		if s.ci == nil || s.page == s.ci.pw.Pages() {
			return nil, false, nil
		}
		body, err := s.ci.page(s.page, s.buf)
		if err != nil {
			return nil, false, err
		}
		s.body = body
		s.page++
	}
	var rec []byte
	rec, s.body = nextTriple(s.body)
	return rec, true, nil
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
