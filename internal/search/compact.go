package search

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"pds/internal/logstore"
)

// This file implements step 3 of the tutorial's framework for the search
// engine: timely reorganization of the sequential bucket chains into a
// more efficient structure, itself built only from sequential writes.
//
// Reorganization externally sorts every posting by (term ascending, docid
// DESCENDING) — stable, log-only — and rewrites them as densely packed
// "compact" pages. A small in-RAM directory (last term of each page) routes
// a query keyword to exactly the pages holding its postings, instead of a
// whole hash-bucket chain shared with other terms. Documents indexed after
// a reorganization go to fresh bucket chains; since docids only grow, a
// cursor serves chain postings first and compact postings second, and the
// merged stream stays strictly docid-descending.

// compact page layout: u16 count | count × triple (same triple encoding as
// bucket pages, without the chain pointer).
const compactPageHeader = 2

// compactIndex is the reorganized posting store.
type compactIndex struct {
	pw *logstore.PageWriter
	// dir[i] is the last (greatest) term on logical page i.
	dir []string
}

// Reorganize merges every bucket chain (and any previous compact index)
// into a fresh compact index, then resets the chains and frees the old
// blocks. runPages and fanIn bound the external sort's RAM, as in the
// tutorial's reorganization step.
func (e *Engine) Reorganize(runPages, fanIn int) error {
	if err := e.Flush(); err != nil {
		return err
	}
	alloc := e.pw.Alloc()

	// Gather all postings into a temporary log (sequential writes only).
	// A triple is encoded on a bucket or compact page exactly as in the
	// log record, so each goes from the page image straight into the log.
	tmp := logstore.NewLog(alloc)
	var buf []byte // one page of RAM for the walk
	emit := func(body []byte) error {
		for len(body) > 0 {
			var rec []byte
			rec, body = nextTriple(body)
			if _, err := tmp.Append(rec); err != nil {
				return err
			}
		}
		return nil
	}
	for b := 0; b < e.nbuckets; b++ {
		next := e.heads[b]
		for next >= 0 {
			img, err := readPage(e.pw.Chip(), int(next), &buf)
			if err != nil {
				return err
			}
			prev, body, err := bucketPage(img)
			if err != nil {
				return err
			}
			if err := emit(body); err != nil {
				return err
			}
			next = prev
		}
	}
	if e.compact != nil {
		for p := 0; p < e.compact.pw.Pages(); p++ {
			body, err := e.compact.page(p, &buf)
			if err != nil {
				return err
			}
			if err := emit(body); err != nil {
				return err
			}
		}
	}

	// Sort by (term asc, docid desc).
	sorted, err := logstore.Sort(tmp, tripleLess, runPages, fanIn)
	if err != nil {
		return err
	}
	if err := tmp.Drop(); err != nil {
		return err
	}
	defer sorted.Drop()

	// Pack into compact pages, recording the directory. The chip copies
	// each page it programs, so the page of RAM the walk used serves every
	// image; lastTerm is the last triple's term where it lies in it.
	ci := &compactIndex{pw: logstore.NewPageWriter(alloc)}
	if buf == nil {
		buf = make([]byte, e.pageSize)
	}
	page := buf[:compactPageHeader]
	cnt := 0
	var lastTerm []byte
	flushPage := func() error {
		if cnt == 0 {
			return nil
		}
		binary.LittleEndian.PutUint16(page[0:2], uint16(cnt))
		if _, err := ci.pw.Write(page); err != nil {
			return err
		}
		ci.dir = append(ci.dir, string(lastTerm))
		page = page[:compactPageHeader]
		cnt = 0
		return nil
	}
	it := sorted.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		if err := checkTripleRec(rec); err != nil {
			return err
		}
		if len(page)+len(rec) > e.pageSize {
			if err := flushPage(); err != nil {
				return err
			}
		}
		page = append(page, rec...)
		cnt++
		lastTerm = tripleTerm(page[len(page)-len(rec):])
	}
	if err := it.Err(); err != nil {
		return err
	}
	if err := flushPage(); err != nil {
		return err
	}

	// Swap in, then free the old chains and old compact index. In durable
	// mode the commit record between the two is the atomic switch point
	// (DESIGN §11): until it lands the old structure is what recovery
	// restores (the half-built compact pages are reclaimed as unowned), and
	// once it lands the old blocks are garbage whether or not the drops
	// below complete.
	oldPW := e.pw
	oldCompact := e.compact
	e.pw = logstore.NewPageWriter(alloc)
	e.compact = ci
	for b := range e.heads {
		e.heads[b] = -1
	}
	if e.j != nil {
		if err := e.j.Commit(e.manifest()); err != nil {
			return err
		}
	}
	if err := oldPW.Drop(); err != nil {
		return err
	}
	if oldCompact != nil {
		if err := oldCompact.pw.Drop(); err != nil {
			return err
		}
	}
	return nil
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
