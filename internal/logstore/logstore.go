// Package logstore provides the sequential ("log-only") storage structures
// at the heart of the tutorial's framework for resource-constrained data
// management:
//
//  1. pages are written strictly sequentially and never updated or moved,
//     so random flash writes are avoided by construction;
//  2. allocation and deallocation happen at erase-block grain, so partial
//     garbage collection never occurs;
//  3. scalability comes from reorganizing logs into more efficient
//     structures using only further logs (see Sort).
//
// A PageWriter hands out physical pages in append order — the primitive on
// which record logs, chained hash buckets and reorganized trees are built.
// A Log stores variable-size records packed into pages; a summarized Log
// also keeps one small summary per page in a log of its own — the summary
// scan of the tutorial's embedded database.
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"pds/internal/flash"
)

// Errors returned by logstore operations.
var (
	ErrRecordTooLarge = errors.New("logstore: record larger than page payload")
	ErrClosed         = errors.New("logstore: structure dropped")
	ErrBadRecordID    = errors.New("logstore: record id out of range")
	// ErrCorruptPage is returned when a log page fails its CRC or its
	// slot directory runs past the page end — torn or bit-rotted media
	// surfaces as this typed error, never as silently garbled records.
	ErrCorruptPage = errors.New("logstore: corrupt page")
	// ErrCorruptSummary is returned by a summary scan that meets a
	// record too short to name its page.
	ErrCorruptSummary = errors.New("logstore: corrupt summary record")
)

// PageWriter appends pages to flash, allocating blocks on demand. Pages are
// written in strictly increasing order inside each block, satisfying the
// NAND discipline. The writer remembers the physical pages it produced so
// the structure can later be scanned or dropped at block grain.
type PageWriter struct {
	alloc  *flash.Allocator
	blocks []int
	// nextInBlock is the page offset inside the last block that will be
	// written next; PagesPerBlock means "need a fresh block".
	nextInBlock int
	pages       int
	closed      bool
}

// NewPageWriter creates a writer drawing blocks from alloc.
func NewPageWriter(alloc *flash.Allocator) *PageWriter {
	return &PageWriter{alloc: alloc, nextInBlock: alloc.Chip().Geometry().PagesPerBlock}
}

// Write appends one page of data and returns its physical page number.
func (w *PageWriter) Write(data []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	g := w.alloc.Chip().Geometry()
	if w.nextInBlock == g.PagesPerBlock {
		b, err := w.alloc.Alloc()
		if err != nil {
			return 0, err
		}
		w.blocks = append(w.blocks, b)
		w.nextInBlock = 0
	}
	b := w.blocks[len(w.blocks)-1]
	phys := b*g.PagesPerBlock + w.nextInBlock
	if err := w.alloc.Chip().WritePage(phys, data); err != nil {
		return 0, err
	}
	w.nextInBlock++
	w.pages++
	return phys, nil
}

// Pages returns how many pages have been written.
func (w *PageWriter) Pages() int { return w.pages }

// Blocks returns the blocks owned by this writer, in allocation order.
func (w *PageWriter) Blocks() []int { return w.blocks }

// PhysPage maps a logical page index (0-based, in write order) to the
// physical page number.
func (w *PageWriter) PhysPage(logical int) (int, error) {
	if logical < 0 || logical >= w.pages {
		return 0, fmt.Errorf("%w: logical page %d of %d", ErrBadRecordID, logical, w.pages)
	}
	g := w.alloc.Chip().Geometry()
	return w.blocks[logical/g.PagesPerBlock]*g.PagesPerBlock + logical%g.PagesPerBlock, nil
}

// Drop frees every block owned by the writer; their erases are owed, not
// paid (see flash.Allocator).
func (w *PageWriter) Drop() error {
	if w.closed {
		return nil
	}
	w.closed = true
	for _, b := range w.blocks {
		if err := w.alloc.Free(b); err != nil {
			return err
		}
	}
	w.blocks = nil
	return nil
}

// Chip returns the underlying flash chip (for I/O accounting).
func (w *PageWriter) Chip() *flash.Chip { return w.alloc.Chip() }

// Alloc returns the allocator the writer draws from.
func (w *PageWriter) Alloc() *flash.Allocator { return w.alloc }

// RecordID locates a record inside a Log: logical page and slot in page.
type RecordID struct {
	Page int32
	Slot int32
}

// Page layout of a Log page:
//
//	u16 count | u32 crc | count × { u16 len | len bytes }
//
// The CRC (IEEE, computed with the crc field zeroed) covers the whole
// page image, so recovery can tell a torn or corrupted survivor from a
// valid one (DESIGN §11).
const pageHeader = 2 + 4
const slotHeader = 2

// pageCRC computes the page checksum of img with its crc field treated
// as zero.
func pageCRC(img []byte) uint32 {
	h := crc32.Update(0, crc32.IEEETable, img[:2])
	h = crc32.Update(h, crc32.IEEETable, zeroCRC[:])
	return crc32.Update(h, crc32.IEEETable, img[pageHeader:])
}

// zeroCRC stands in for the crc field; package-level because a local
// array escapes through crc32's per-architecture indirection.
var zeroCRC [4]byte

// sealPage stamps count and crc into a finished page image.
func sealPage(img []byte, cnt int) {
	binary.LittleEndian.PutUint16(img[:2], uint16(cnt))
	binary.LittleEndian.PutUint32(img[2:6], pageCRC(img))
}

// MaxRecord returns the largest record storable in a log over geometry g.
func MaxRecord(g flash.Geometry) int { return g.PageSize - pageHeader - slotHeader }

// Log is an append-only record log. Appends are buffered into an in-RAM
// page image (one page of RAM, consistent with the MCU model) and flushed
// when the page fills or Flush is called.
type Log struct {
	w    *PageWriter
	buf  []byte // current page image
	cnt  int    // records in buf
	recs int    // total records appended (including buffered)
	// flushedRecs counts records durable in flash.
	flushedRecs int
	// sum is the summary side of a summarized log, nil for a plain one.
	sum *summaries
}

// Summarize appends to dst the summary of one page of a summarized Log,
// built from the page's records.
type Summarize func(dst []byte, page PageView) ([]byte, error)

// summaries is the summary side of a summarized Log: a log holding one
// record per flushed data page, u32 page | summary.
type summaries struct {
	log       *Log
	summarize Summarize
	// pending is the summary record of a data page already on flash whose
	// append to the summary log failed; the next flush appends it first.
	pending *[]byte
}

// NewLog creates an empty log drawing blocks from alloc.
func NewLog(alloc *flash.Allocator) *Log {
	return &Log{w: NewPageWriter(alloc)}
}

// NewSummarized creates an empty summarized log drawing blocks from
// alloc: whenever it writes a page, summarize builds that page's summary
// from its records, and the summary is appended to the log's summary log.
// Flush and Drop cover both logs; Pages, Len and Blocks the data only.
func NewSummarized(alloc *flash.Allocator, summarize Summarize) *Log {
	l := NewLog(alloc)
	l.sum = &summaries{log: NewLog(alloc), summarize: summarize}
	return l
}

// pageSize returns the device page size.
func (l *Log) pageSize() int { return l.w.alloc.Chip().Geometry().PageSize }

// Append adds one record to the log and returns its id.
func (l *Log) Append(rec []byte) (RecordID, error) {
	max := MaxRecord(l.w.alloc.Chip().Geometry())
	if len(rec) > max {
		return RecordID{}, fmt.Errorf("%w: %d > %d", ErrRecordTooLarge, len(rec), max)
	}
	need := slotHeader + len(rec)
	if l.buf == nil {
		l.buf = make([]byte, pageHeader, l.pageSize())
	}
	if len(l.buf)+need > l.pageSize() {
		if err := l.flushPage(); err != nil {
			return RecordID{}, err
		}
	}
	id := RecordID{Page: int32(l.w.Pages()), Slot: int32(l.cnt)}
	var lenb [2]byte
	binary.LittleEndian.PutUint16(lenb[:], uint16(len(rec)))
	l.buf = append(l.buf, lenb[:]...)
	l.buf = append(l.buf, rec...)
	l.cnt++
	l.recs++
	return id, nil
}

// Flush writes the buffered page, if any, to flash, and then the summary
// log's.
func (l *Log) Flush() error {
	err := l.flushPage()
	if err == nil && l.sum != nil {
		err = l.sum.log.Flush()
	}
	return err
}

// flushPage writes the buffered page, if any, and appends its summary to
// the summary log's buffer. The summary is built first, in a page of RAM
// from the pool: a failure to build it leaves the page buffered and
// nothing written. Once the page is written it counts as flushed, even if
// appending its summary fails; the summary then stays pending, and the
// next flush appends it before anything else.
func (l *Log) flushPage() error {
	s := l.sum
	if s != nil && s.pending != nil {
		if _, err := s.log.Append(*s.pending); err != nil {
			return err
		}
		PutPageBuf(s.pending)
		s.pending = nil
	}
	if l.cnt == 0 {
		return nil
	}
	sealPage(l.buf, l.cnt)
	var sum *[]byte
	if s != nil {
		sum = l.PageBuf()
		rec, err := s.summarize(binary.LittleEndian.AppendUint32((*sum)[:0], uint32(l.w.Pages())), l.Unflushed())
		if err != nil {
			PutPageBuf(sum)
			return err
		}
		*sum = rec
	}
	if _, err := l.w.Write(l.buf); err != nil {
		if sum != nil {
			PutPageBuf(sum)
		}
		return err
	}
	l.flushedRecs += l.cnt
	// The chip copied the image: the page of RAM serves the next page.
	l.buf = l.buf[:pageHeader]
	l.cnt = 0
	if sum != nil {
		if _, err := s.log.Append(*sum); err != nil {
			s.pending = sum
			return err
		}
		PutPageBuf(sum)
	}
	return nil
}

// PageView iterates the records of one checked log page where they lie.
// The records are views into the page of RAM the page was read into, or
// into the log's write buffer: they are valid until that buffer's next
// read, or the log's next Append or Flush.
type PageView struct {
	img  []byte
	off  int // offset in img of the next slot
	left int // records Next has yet to return
}

// Len returns how many records Next has yet to return.
func (v *PageView) Len() int { return v.left }

// Next returns the next record of the page; ok is false after the last.
func (v *PageView) Next() (rec []byte, ok bool) {
	if v.left == 0 {
		return nil, false
	}
	v.left--
	rec, v.off = slotAt(v.img, v.off)
	return rec, true
}

// ReadPage reads one flushed page into buf — a page of RAM the caller
// holds, usually from PageBuf — checks it (checksum and slot directory)
// and returns its records. It costs one page I/O.
func (l *Log) ReadPage(logical int, buf []byte) (PageView, error) {
	phys, err := l.w.PhysPage(logical)
	if err != nil {
		return PageView{}, err
	}
	n, err := l.w.Chip().ReadPage(phys, buf)
	if err != nil {
		return PageView{}, err
	}
	return viewPage(buf[:n])
}

// viewPage checks a page image and returns its records.
func viewPage(img []byte) (PageView, error) {
	cnt, err := checkPage(img)
	if err != nil {
		return PageView{}, err
	}
	return PageView{img: img, off: pageHeader, left: cnt}, nil
}

// Unflushed returns the records not yet flushed to flash, where they lie
// in the write buffer (no I/O): l.cnt slots, appended by Append itself.
func (l *Log) Unflushed() PageView {
	return PageView{img: l.buf, off: pageHeader, left: l.cnt}
}

// Len returns the number of records appended (flushed or buffered).
func (l *Log) Len() int { return l.recs }

// Pages returns the number of flash pages the log occupies (flushed only).
func (l *Log) Pages() int { return l.w.Pages() }

// Blocks returns the erase blocks the log occupies.
func (l *Log) Blocks() []int { return l.w.Blocks() }

// SummaryPages returns the number of flash pages a summarized log's
// summary log occupies (flushed only).
func (l *Log) SummaryPages() int { return l.sum.log.Pages() }

// SummaryStream captures a summarized log's summary log as a manifest
// stream; see StreamOf.
func (l *Log) SummaryStream(name string) Stream { return StreamOf(name, l.sum.log) }

// Summaries is the summary scan of a summarized log: it calls fn with the
// summary of every flushed page, in page order. It holds one page of RAM,
// taken from the pool; sum is a view into it, valid until fn returns. An
// error from fn ends the scan and is returned.
func (l *Log) Summaries(fn func(page int, sum []byte) error) error {
	it := l.sum.log.Iter()
	defer it.Release()
	for {
		rec, _, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if len(rec) < 4 {
			return fmt.Errorf("%w: %d bytes", ErrCorruptSummary, len(rec))
		}
		if err := fn(int(binary.LittleEndian.Uint32(rec)), rec[4:]); err != nil {
			return err
		}
	}
}

// Drop flushes nothing and frees every block, the summary log's too.
func (l *Log) Drop() error {
	l.buf = nil
	l.cnt = 0
	err := l.w.Drop()
	if s := l.sum; s != nil {
		if s.pending != nil {
			PutPageBuf(s.pending)
			s.pending = nil
		}
		err = errors.Join(err, s.log.Drop())
	}
	return err
}

// Chip exposes the chip for I/O accounting.
func (l *Log) Chip() *flash.Chip { return l.w.Chip() }

// Alloc exposes the allocator (to create sibling structures).
func (l *Log) Alloc() *flash.Allocator { return l.w.alloc }

// checkPage validates a page image — checksum, then every slot of its
// directory — and returns its record count. An empty image (an erased
// page) holds no records.
func checkPage(page []byte) (int, error) {
	if len(page) == 0 {
		return 0, nil
	}
	if len(page) < pageHeader {
		return 0, fmt.Errorf("%w: %d bytes", ErrCorruptPage, len(page))
	}
	if binary.LittleEndian.Uint32(page[2:6]) != pageCRC(page) {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptPage)
	}
	cnt := int(binary.LittleEndian.Uint16(page[:2]))
	off := pageHeader
	for i := 0; i < cnt; i++ {
		if off+slotHeader > len(page) {
			return 0, fmt.Errorf("%w: slot %d header past end", ErrCorruptPage, i)
		}
		off += slotHeader + int(binary.LittleEndian.Uint16(page[off:off+2]))
		if off > len(page) {
			return 0, fmt.Errorf("%w: slot %d data past end", ErrCorruptPage, i)
		}
	}
	return cnt, nil
}

// slotAt returns the record whose slot header sits at off in a checked
// page, and the offset of the next slot.
func slotAt(page []byte, off int) (rec []byte, next int) {
	n := int(binary.LittleEndian.Uint16(page[off : off+2]))
	off += slotHeader
	return page[off : off+n], off + n
}

// pageBufs recycles one-page scratch buffers for reads that copy out what
// they keep. Shared by every log of the process, so an idle store pins
// none.
var pageBufs sync.Pool

// PageBuf takes a scratch buffer of one of l's pages from the pool; hand
// it back with PutPageBuf once nothing views it any more.
func (l *Log) PageBuf() *[]byte { return l.w.PageBuf() }

// PageBuf takes a scratch buffer of one of w's pages from the pool; hand
// it back with PutPageBuf once nothing views it any more.
func (w *PageWriter) PageBuf() *[]byte {
	size := w.alloc.Chip().Geometry().PageSize
	if p, _ := pageBufs.Get().(*[]byte); p != nil && cap(*p) >= size {
		*p = (*p)[:size]
		return p
	}
	b := make([]byte, size)
	return &b
}

// PutPageBuf returns a buffer taken with PageBuf to the pool.
func PutPageBuf(p *[]byte) { pageBufs.Put(p) }

// HeldPage is a page of RAM a reader keeps across record fetches from one
// log, remembering which flushed page it holds: a fetch from that page
// reads nothing. Flushed pages never change, so what it holds stays exact;
// records still in the write buffer are viewed there and never held. The
// zero value holds nothing; its page of RAM is taken from the pool on the
// first read and handed back by Release.
type HeldPage struct {
	buf *[]byte
	// held says buf holds logical page page: n bytes, cnt records.
	held         bool
	page, n, cnt int32
}

// Release hands the page of RAM back to the pool; h holds nothing after.
func (h *HeldPage) Release() {
	if h.buf != nil {
		PutPageBuf(h.buf)
	}
	*h = HeldPage{}
}

// Holding reports whether h has a page of RAM.
func (h *HeldPage) Holding() bool { return h.buf != nil }

// ViewHeld is ViewAt through a held page: the record is read into h's
// page of RAM unless h already holds its page. The record is valid until
// a fetch through h reads another page.
func (l *Log) ViewHeld(id RecordID, h *HeldPage) ([]byte, error) {
	v := l.Unflushed()
	if int(id.Page) != l.w.Pages() {
		if !h.held || id.Page != h.page {
			if h.buf == nil {
				h.buf = l.PageBuf()
			}
			h.held = false
			pv, err := l.ReadPage(int(id.Page), *h.buf)
			if err != nil {
				return nil, err
			}
			h.held, h.page, h.n, h.cnt = true, id.Page, int32(len(pv.img)), int32(pv.left)
		}
		v = PageView{img: (*h.buf)[:h.n], off: pageHeader, left: int(h.cnt)}
	}
	return v.at(id.Slot)
}

// at returns the record in slot of the page v views from its first slot.
func (v PageView) at(slot int32) ([]byte, error) {
	if slot < 0 || int(slot) >= v.left {
		return nil, ErrBadRecordID
	}
	for s := slot; s > 0; s-- {
		v.Next()
	}
	rec, _ := v.Next()
	return rec, nil
}

// ReadAt fetches a fresh copy of one record by id.
func (l *Log) ReadAt(id RecordID) ([]byte, error) {
	var h HeldPage
	defer h.Release()
	rec, err := l.ViewHeld(id, &h)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// Iterator scans a log forward, reading one page of flash at a time —
// the pipelined access pattern the MCU RAM budget dictates. It holds that
// one page of RAM, taken from the pool, from its first page read until
// Next reports the end of the stream: every page is read into the same
// buffer.
type Iterator struct {
	log     *Log
	page    int      // next logical page to load
	buf     *[]byte  // the page of RAM
	v       PageView // what is left of the loaded page
	curPage int      // logical page currently loaded
	slot    int
	done    bool
	err     error
}

// Iter returns an iterator positioned before the first record. The caller
// should have Flushed the log if it wants buffered records included; the
// iterator also serves the write buffer at the end, so a flush is not
// mandatory for correctness.
func (l *Log) Iter() *Iterator {
	return &Iterator{log: l, curPage: -1}
}

// Next returns the next record, a RecordID, and false at end. The returned
// slice is a view into the iterator's page buffer: it is valid only until
// the following Next call.
func (it *Iterator) Next() ([]byte, RecordID, bool) {
	for !it.done {
		if rec, ok := it.v.Next(); ok {
			id := RecordID{Page: int32(it.curPage), Slot: int32(it.slot)}
			it.slot++
			return rec, id, true
		}
		l := it.log
		switch {
		case it.page < l.w.Pages():
			if it.buf == nil {
				it.buf = l.PageBuf()
			}
			it.v, it.err = l.ReadPage(it.page, *it.buf)
			it.curPage = it.page
			it.page++
		case it.curPage < l.w.Pages():
			// Serve the write buffer once, where it lies.
			it.v = l.Unflushed()
			it.curPage = l.w.Pages()
		default:
			it.done = true
		}
		it.slot = 0
		if it.err != nil {
			it.done = true
		}
		if it.done && it.buf != nil {
			PutPageBuf(it.buf)
			it.buf = nil
		}
	}
	return nil, RecordID{}, false
}

// Err returns the first error the iterator hit, if any.
func (it *Iterator) Err() error { return it.err }

// Release ends the stream early: the iterator hands its page of RAM back
// to the pool, and Next reports the end from then on.
func (it *Iterator) Release() {
	if it.buf != nil {
		PutPageBuf(it.buf)
		it.buf = nil
	}
	it.done = true
}
