// Package search implements the tutorial's embedded search engine (Part II,
// first illustration): an inverted index stored as chained hash-bucket pages
// in NAND flash, queried in pipeline with one page of RAM per query keyword.
//
// Index layout. Terms hash into a fixed number of buckets. Insertions
// append (term, docid, weight) triples to a per-bucket RAM page buffer;
// when a buffer fills it is flushed as one flash page carrying a pointer to
// the previous page of the same bucket. Because document ids are assigned
// in increasing order and chains are walked newest-page-first, each chain
// yields its triples in descending docid order — the property that makes
// the multi-keyword merge pipelined.
//
// Query evaluation. For a set of keywords, the engine opens one cursor per
// keyword (one page of RAM each), merges the streams on descending docid,
// folds TF-IDF contributions as the triples of one document meet in RAM at
// the same time, and maintains the top-N results in a bounded heap. RAM is
// accounted against the device arena, so a query that would not fit the
// MCU fails instead of silently spilling.
package search

import (
	"cmp"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"

	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/mcu"
	"pds/internal/obs"
)

// Metric families the engine emits on an attached observer. Chain and
// compact page counters split the pipelined-merge I/O by index regime, the
// postings counter measures merge work independent of page packing.
const (
	MetricQueries      = "search_queries_total"
	MetricChainPages   = "search_chain_pages_total"
	MetricCompactPages = "search_compact_pages_total"
	MetricPostings     = "search_postings_total"
)

// DocID identifies a document; ids are assigned in strictly increasing
// insertion order (the invariant pipelined merging relies on).
type DocID uint32

// Errors returned by the engine.
var (
	ErrTermTooLong = errors.New("search: term longer than 255 bytes")
	ErrNoKeywords  = errors.New("search: empty keyword list")
	ErrBadTopN     = errors.New("search: topN must be >= 1")
	// ErrCompactOrder reports postings that Reorganize's merge found out
	// of (term ascending, docid descending) order: a compact page, or a
	// chain docid that does not exceed the compact ones, broke the
	// invariant the merge relies on.
	ErrCompactOrder = errors.New("search: postings out of order")
)

// triple is one posting: a term occurrence in a document with its weight
// (term frequency).
type triple struct {
	term   string
	doc    DocID
	weight uint16
}

// Bucket page format:
//
//	i32 prev (physical page number of previous chain page; -1 = none)
//	u16 count
//	count × { u8 termLen | term | u32 docid | u16 weight }
const bucketPageHeader = 6

func tripleSize(term string) int { return 1 + len(term) + 4 + 2 }

// Encoded triples are read where they lie in a page image. tripleBody
// checks that img holds cnt well-formed triples from off and returns the
// bytes they occupy; nextTriple then peels one triple off a checked body,
// and tripleTerm, tripleDoc and tripleWeight read its fields.
func tripleBody(img []byte, off, cnt int, what string) ([]byte, error) {
	end := off
	for i := 0; i < cnt; i++ {
		if end >= len(img) {
			return nil, fmt.Errorf("search: corrupt %s page", what)
		}
		end += 1 + int(img[end]) + 6
		if end > len(img) {
			return nil, fmt.Errorf("search: corrupt %s page", what)
		}
	}
	return img[off:end], nil
}

func nextTriple(body []byte) (rec, rest []byte) {
	n := 1 + int(body[0]) + 6
	return body[:n], body[n:]
}

func tripleTerm(rec []byte) []byte { return rec[1 : len(rec)-6] }

func tripleDoc(rec []byte) DocID {
	return DocID(binary.LittleEndian.Uint32(rec[len(rec)-6:]))
}

func tripleWeight(rec []byte) uint16 { return binary.LittleEndian.Uint16(rec[len(rec)-2:]) }

// Engine is an embedded search engine bound to one token's flash and RAM.
type Engine struct {
	pw       *logstore.PageWriter
	arena    *mcu.Arena
	bufRes   mcu.Reservation
	nbuckets int
	heads    []int32
	bufs     [][]triple
	bufBytes []int
	ndocs    int
	df       map[string]int // vocabulary directory: term -> document frequency
	nextDoc  DocID
	pageSize int
	// compact holds the reorganized postings, if Reorganize has run.
	compact *compactIndex
	// old is the old structure of the reorganization under way.
	old compactStream
	// obsv mirrors query-path work into a metrics registry when attached.
	// The engine is single-threaded by design, so a plain field suffices.
	obsv *obs.Registry
	// j, when set, is the commit-record journal of the durable mode
	// (recover.go): Sync commits, Reorganize writes a switch record.
	j *logstore.Journal
}

// SetObserver attaches (or, with nil, detaches) a metrics registry; every
// subsequent query mirrors its pipelined-merge I/O into it.
func (e *Engine) SetObserver(reg *obs.Registry) { e.obsv = reg }

// count adds d to family on the attached observer, if any.
func (e *Engine) count(family string, d int64) {
	if e.obsv != nil && d != 0 {
		e.obsv.Counter(family).Add(d)
	}
}

// NewEngine creates an engine with nbuckets hash buckets. It reserves one
// page of RAM per bucket for insertion buffers from the device arena, so an
// engine that would not fit the MCU fails to construct.
func NewEngine(alloc *flash.Allocator, arena *mcu.Arena, nbuckets int) (*Engine, error) {
	if nbuckets < 1 {
		return nil, fmt.Errorf("search: nbuckets must be >= 1, got %d", nbuckets)
	}
	pageSize := alloc.Chip().Geometry().PageSize
	res, err := arena.Reserve(nbuckets * pageSize)
	if err != nil {
		return nil, fmt.Errorf("search: insertion buffers: %w", err)
	}
	heads := make([]int32, nbuckets)
	for i := range heads {
		heads[i] = -1
	}
	return &Engine{
		pw:       logstore.NewPageWriter(alloc),
		arena:    arena,
		bufRes:   res,
		nbuckets: nbuckets,
		heads:    heads,
		bufs:     make([][]triple, nbuckets),
		bufBytes: make([]int, nbuckets),
		df:       make(map[string]int),
		pageSize: pageSize,
	}, nil
}

// Detach releases the engine's RAM reservation without touching its
// flash-resident state: the durable image stays exactly as the last Sync
// left it and can be reconstructed with Reopen over logstore.Recover.
// The engine is unusable afterwards. This is the evict-to-flash half of
// the tenant lifecycle; Close, by contrast, also frees the flash blocks.
func (e *Engine) Detach() {
	e.bufRes.Release()
}

// Close releases the engine's RAM reservation and frees its flash blocks.
func (e *Engine) Close() error {
	e.bufRes.Release()
	if e.compact != nil {
		if err := e.compact.pw.Drop(); err != nil {
			return err
		}
		e.compact = nil
	}
	return e.pw.Drop()
}

// NumDocs returns the number of indexed documents.
func (e *Engine) NumDocs() int { return e.ndocs }

// NextDoc returns the id the next AddDocument will assign — part of the
// recovered application state, exposed so generic durability fingerprints
// can include it.
func (e *Engine) NextDoc() DocID { return e.nextDoc }

// DocFreq returns the number of documents containing term.
func (e *Engine) DocFreq(term string) int { return e.df[term] }

// Pages returns the number of flash pages the index occupies.
func (e *Engine) Pages() int { return e.pw.Pages() }

func (e *Engine) bucketOf(term string) int {
	h := fnv.New32a()
	h.Write([]byte(term))
	return int(h.Sum32() % uint32(e.nbuckets))
}

// AddDocument indexes a document given as a term → term-frequency map and
// returns the assigned DocID. Frequencies above 65535 are clamped.
func (e *Engine) AddDocument(terms map[string]int) (DocID, error) {
	doc := e.nextDoc
	// Deterministic order for reproducible flash layouts.
	sorted := make([]string, 0, len(terms))
	for t := range terms {
		if len(t) > 255 {
			return 0, fmt.Errorf("%w: %q", ErrTermTooLong, t[:16]+"...")
		}
		if terms[t] <= 0 {
			continue
		}
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)
	for _, t := range sorted {
		w := terms[t]
		if w > math.MaxUint16 {
			w = math.MaxUint16
		}
		if err := e.addTriple(triple{term: t, doc: doc, weight: uint16(w)}); err != nil {
			return 0, err
		}
		e.df[t]++
	}
	e.nextDoc++
	e.ndocs++
	return doc, nil
}

func (e *Engine) addTriple(tr triple) error {
	b := e.bucketOf(tr.term)
	if bucketPageHeader+e.bufBytes[b]+tripleSize(tr.term) > e.pageSize {
		if err := e.flushBucket(b); err != nil {
			return err
		}
	}
	e.bufs[b] = append(e.bufs[b], tr)
	e.bufBytes[b] += tripleSize(tr.term)
	return nil
}

func (e *Engine) flushBucket(b int) error {
	if len(e.bufs[b]) == 0 {
		return nil
	}
	page := make([]byte, bucketPageHeader, bucketPageHeader+e.bufBytes[b])
	binary.LittleEndian.PutUint32(page[0:4], uint32(e.heads[b]))
	binary.LittleEndian.PutUint16(page[4:6], uint16(len(e.bufs[b])))
	for _, tr := range e.bufs[b] {
		page = appendTriple(page, tr)
	}
	phys, err := e.pw.Write(page)
	if err != nil {
		return err
	}
	e.heads[b] = int32(phys)
	e.bufs[b] = e.bufs[b][:0]
	e.bufBytes[b] = 0
	return nil
}

// Flush persists every insertion buffer to flash.
func (e *Engine) Flush() error {
	for b := 0; b < e.nbuckets; b++ {
		if err := e.flushBucket(b); err != nil {
			return err
		}
	}
	return nil
}

// bucketPage parses a bucket page into its chain pointer and its checked
// triples, in page order (ascending docid).
func bucketPage(img []byte) (prev int32, body []byte, err error) {
	if len(img) < bucketPageHeader {
		return -1, nil, fmt.Errorf("search: short bucket page (%d bytes)", len(img))
	}
	cnt := int(binary.LittleEndian.Uint16(img[4:6]))
	body, err = tripleBody(img, bucketPageHeader, cnt, "bucket")
	if err != nil {
		return -1, nil, err
	}
	return int32(binary.LittleEndian.Uint32(img[0:4])), body, nil
}

// readPage reads physical page phys into buf (one page of RAM, allocated
// on first use) and returns the image.
func readPage(chip *flash.Chip, phys int, buf *[]byte) ([]byte, error) {
	if *buf == nil {
		*buf = make([]byte, chip.Geometry().PageSize)
	}
	n, err := chip.ReadPage(phys, *buf)
	return (*buf)[:n], err
}

// cursor phases: postings come from (0) the RAM buffer + bucket chain —
// the newest documents — then (1) the compact reorganized index, then the
// stream is (2) exhausted. Docids stay strictly descending across phases
// because reorganization only covers documents older than any chain entry.
const (
	phaseChain = iota
	phaseCompact
	phaseDone
)

// cursor streams the postings of one term in descending docid order using
// one page of RAM.
type cursor struct {
	eng   *Engine
	term  string
	idf   float64
	buf   []byte   // the cursor's page of RAM
	cur   []triple // descending docid
	pos   int
	next  int32 // chain pointer still to follow; -1 = exhausted
	phase int
	cpage int  // next compact page to read
	clast bool // the page just served was the term's last compact page
}

// cursorPool recycles cursors together with their page of RAM and posting
// slab: a search opens one per keyword and closes each when its stream
// dries up. Shared by every engine of the process, so an idle one pins
// none.
var cursorPool sync.Pool

// openCursor positions a cursor on term. Unflushed buffered triples are
// served first (they are the newest).
func (e *Engine) openCursor(term string) *cursor {
	b := e.bucketOf(term)
	c, _ := cursorPool.Get().(*cursor)
	if c == nil {
		c = new(cursor)
	}
	page := c.buf
	if len(page) < e.pageSize {
		page = nil // another engine's smaller page: readPage allocates ours
	}
	*c = cursor{eng: e, term: term, next: e.heads[b], buf: page, cur: c.cur[:0]}
	if n := e.df[term]; n > 0 {
		c.idf = math.Log(float64(e.ndocs) / float64(n))
	}
	// Buffered triples, filtered and reversed to descending docid.
	buf := e.bufs[b]
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].term == term {
			c.cur = append(c.cur, buf[i])
		}
	}
	return c
}

// close hands the cursor back to the pool; it must not be used afterwards.
func (c *cursor) close() {
	c.eng = nil
	cursorPool.Put(c)
}

// head returns the current posting without advancing.
func (c *cursor) head() (triple, bool) {
	if c.pos < len(c.cur) {
		return c.cur[c.pos], true
	}
	return triple{}, false
}

// advance moves past the current posting, loading further chain or compact
// pages as needed. It returns false when the stream is exhausted.
func (c *cursor) advance() (bool, error) {
	c.pos++
	for c.pos >= len(c.cur) {
		switch c.phase {
		case phaseChain:
			if c.next >= 0 {
				img, err := readPage(c.eng.pw.Chip(), int(c.next), &c.buf)
				c.eng.count(MetricChainPages, 1)
				if err != nil {
					return false, err
				}
				prev, body, err := bucketPage(img)
				if err != nil {
					return false, err
				}
				c.load(body)
				slices.Reverse(c.cur) // page stores ascending docid
				c.next = prev
				continue
			}
			ci := c.eng.compact
			if ci == nil {
				c.phase = phaseDone
				return false, nil
			}
			p := ci.firstPageFor(c.term)
			if p < 0 {
				c.phase = phaseDone
				return false, nil
			}
			c.cpage = p
			c.phase = phaseCompact
		case phaseCompact:
			ci := c.eng.compact
			if c.clast || c.cpage >= ci.pw.Pages() {
				c.phase = phaseDone
				return false, nil
			}
			body, err := ci.page(c.cpage, &c.buf)
			c.eng.count(MetricCompactPages, 1)
			if err != nil {
				return false, err
			}
			c.load(body) // compact pages already store docid descending per term
			if ci.dir[c.cpage] > c.term {
				c.clast = true
			}
			c.cpage++
		default:
			return false, nil
		}
	}
	return true, nil
}

// load replaces the cursor's postings with the term's triples of body, in
// page order.
func (c *cursor) load(body []byte) {
	c.cur, c.pos = c.cur[:0], 0
	for len(body) > 0 {
		var rec []byte
		rec, body = nextTriple(body)
		if string(tripleTerm(rec)) == c.term {
			c.cur = append(c.cur, triple{term: c.term, doc: tripleDoc(rec), weight: tripleWeight(rec)})
		}
	}
}

// prime ensures the cursor has a head if any posting exists.
func (c *cursor) prime() (bool, error) {
	if c.pos < len(c.cur) {
		return true, nil
	}
	c.pos-- // counteract advance's increment
	return c.advance()
}

// Result is a scored document.
type Result struct {
	Doc   DocID
	Score float64
}

// topNHeap is a min-heap of results bounded to capacity N.
type topNHeap []Result

func (h topNHeap) Len() int { return len(h) }
func (h topNHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc < h[j].Doc
}
func (h topNHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *topNHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *topNHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// resultEntryBytes is the RAM accounted per top-N heap entry.
const resultEntryBytes = 16

// searchScratch is a search's working set besides its cursors' pages:
// the distinct keywords, the live cursors and the bounded result heap.
type searchScratch struct {
	uniq    []string
	cursors []*cursor
	heap    topNHeap
}

// scratchPool recycles searchScratch, as cursorPool recycles cursors.
var scratchPool sync.Pool

// Search returns the topN documents ranked by TF-IDF for the keywords
// (OR semantics: a document scores on the keywords it contains). It runs in
// pipeline: one RAM page per distinct keyword plus the bounded result heap,
// all reserved from the arena. Its working set comes from pools, so what
// it allocates is its reservation and its answer.
func (e *Engine) Search(keywords []string, topN int) ([]Result, error) {
	if len(keywords) == 0 {
		return nil, ErrNoKeywords
	}
	if topN < 1 {
		return nil, ErrBadTopN
	}
	if e.obsv != nil {
		e.obsv.Counter(MetricQueries, "mode", "or").Inc()
	}
	sc, _ := scratchPool.Get().(*searchScratch)
	if sc == nil {
		sc = new(searchScratch)
	}
	postings := 0
	defer func() {
		e.count(MetricPostings, int64(postings))
		// A failed search closes none of its cursors: they are left to
		// the collector, not to the pool.
		clear(sc.uniq[:cap(sc.uniq)])
		clear(sc.cursors[:cap(sc.cursors)])
		sc.uniq, sc.cursors, sc.heap = sc.uniq[:0], sc.cursors[:0], sc.heap[:0]
		scratchPool.Put(sc)
	}()
	// Deduplicate keywords, keeping their first order: a score is summed
	// in cursor order.
	uniq := sc.uniq[:0]
	for _, k := range keywords {
		if !slices.Contains(uniq, k) {
			uniq = append(uniq, k)
		}
	}
	sc.uniq = uniq
	res, err := e.arena.Reserve(len(uniq)*e.pageSize + topN*resultEntryBytes)
	if err != nil {
		return nil, fmt.Errorf("search: query memory: %w", err)
	}
	defer res.Release()

	cursors := sc.cursors[:0]
	for _, k := range uniq {
		c := e.openCursor(k)
		ok, err := c.prime()
		if err != nil {
			return nil, err
		}
		if ok {
			cursors = append(cursors, c)
		} else {
			c.close()
		}
	}
	// The merge runs until every stream is exhausted, closing each as it
	// dries up.
	h := &sc.heap
	for len(cursors) > 0 {
		// Current document = max head docid across cursors.
		var cur DocID
		for i, c := range cursors {
			t, _ := c.head()
			if i == 0 || t.doc > cur {
				cur = t.doc
			}
		}
		// Fold every cursor positioned on cur; drop exhausted cursors.
		score := 0.0
		alive := cursors[:0]
		for _, c := range cursors {
			ok := true
			for {
				t, has := c.head()
				if !has || t.doc != cur {
					break
				}
				score += float64(t.weight) * c.idf
				postings++
				ok, err = c.advance()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
			}
			if _, has := c.head(); has {
				alive = append(alive, c)
			} else {
				c.close()
			}
		}
		cursors = alive
		r := Result{Doc: cur, Score: score}
		if len(*h) < topN {
			*h = append(*h, r)
			heap.Fix(h, len(*h)-1)
		} else if betterThanMin((*h)[0], r) {
			(*h)[0] = r
			heap.Fix(h, 0)
		}
	}
	sc.cursors = cursors
	// The top N, best first: descending score, then descending docid.
	out := make([]Result, len(*h))
	copy(out, *h)
	slices.SortFunc(out, func(a, b Result) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(b.Doc, a.Doc)
	})
	return out, nil
}

// betterThanMin reports whether candidate r outranks the heap minimum m.
func betterThanMin(m, r Result) bool {
	if r.Score != m.Score {
		return r.Score > m.Score
	}
	return r.Doc > m.Doc
}

// NaiveSearch is the strawman the tutorial warns about: it allocates one
// RAM container per retrieved document, which does not fit a secure MCU on
// large corpora. RAM is accounted per distinct document, so on a small
// arena it fails with mcu.ErrOutOfRAM where Search succeeds.
func (e *Engine) NaiveSearch(keywords []string, topN int) ([]Result, error) {
	if len(keywords) == 0 {
		return nil, ErrNoKeywords
	}
	if topN < 1 {
		return nil, ErrBadTopN
	}
	res, err := e.arena.Reserve(len(keywords) * e.pageSize)
	if err != nil {
		return nil, err
	}
	defer res.Release()

	scores := make(map[DocID]float64)
	seen := map[string]bool{}
	const containerBytes = 32 // docid + score + map overhead
	for _, k := range keywords {
		if seen[k] {
			continue
		}
		seen[k] = true
		c := e.openCursor(k)
		ok, err := c.prime()
		if err != nil {
			return nil, err
		}
		for ok {
			t, _ := c.head()
			if _, exists := scores[t.doc]; !exists {
				if err := res.Grow(containerBytes); err != nil {
					return nil, fmt.Errorf("search: naive evaluation: %w", err)
				}
			}
			scores[t.doc] += float64(t.weight) * c.idf
			ok, err = c.advance()
			if err != nil {
				return nil, err
			}
		}
		c.close()
	}
	all := make([]Result, 0, len(scores))
	for d, s := range scores {
		all = append(all, Result{Doc: d, Score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc > all[j].Doc
	})
	if len(all) > topN {
		all = all[:topN]
	}
	return all, nil
}
