// Durable mode for the search engine (DESIGN §11). The engine commits two
// streams — "search.chains" (the bucket-chain page writer, addressed by
// physical page numbers, so recovery adopts it in waste mode) and
// "search.compact" (the reorganized postings) — plus an App payload with
// its RAM state: bucket count, chain heads, next docid and document count.
//
// The vocabulary directory (df) and the compact page directory are NOT
// persisted: both are derivable, and the crash-consistency contract keeps
// recovery logic minimal. Reopen rebuilds them with one metered sequential
// scan of the committed chains and compact pages.
package search

import (
	"encoding/binary"
	"fmt"

	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/mcu"
)

// Stream names the engine commits under.
const (
	streamChains  = "search.chains"
	streamCompact = "search.compact"
)

// ErrBadEngineState reports an App payload inconsistent with the engine
// the caller is reopening.
var ErrBadEngineState = fmt.Errorf("search: corrupt engine state payload")

// OpenDurable creates an empty engine with a commit-record journal on a
// fresh chip. Sync is the durability point; Reorganize commits an atomic
// switch record.
func OpenDurable(alloc *flash.Allocator, arena *mcu.Arena, nbuckets int) (*Engine, error) {
	j, err := logstore.NewJournal(alloc)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(alloc, arena, nbuckets)
	if err != nil {
		return nil, err
	}
	e.j = j
	return e, nil
}

// appState encodes the engine's RAM state for the manifest App payload:
// u32 nbuckets | u32 nextDoc | u32 ndocs | nbuckets × i32 head.
func (e *Engine) appState() []byte {
	out := make([]byte, 12+4*e.nbuckets)
	binary.LittleEndian.PutUint32(out[0:4], uint32(e.nbuckets))
	binary.LittleEndian.PutUint32(out[4:8], uint32(e.nextDoc))
	binary.LittleEndian.PutUint32(out[8:12], uint32(e.ndocs))
	for i, h := range e.heads {
		binary.LittleEndian.PutUint32(out[12+4*i:], uint32(h))
	}
	return out
}

func decodeAppState(app []byte, nbuckets int) (heads []int32, nextDoc DocID, ndocs int, err error) {
	if len(app) < 12 {
		return nil, 0, 0, fmt.Errorf("%w: %d bytes", ErrBadEngineState, len(app))
	}
	nb := int(binary.LittleEndian.Uint32(app[0:4]))
	if nb != nbuckets {
		return nil, 0, 0, fmt.Errorf("%w: committed %d buckets, reopening with %d", ErrBadEngineState, nb, nbuckets)
	}
	if len(app) != 12+4*nb {
		return nil, 0, 0, fmt.Errorf("%w: %d bytes for %d buckets", ErrBadEngineState, len(app), nb)
	}
	nextDoc = DocID(binary.LittleEndian.Uint32(app[4:8]))
	ndocs = int(binary.LittleEndian.Uint32(app[8:12]))
	heads = make([]int32, nb)
	for i := range heads {
		heads[i] = int32(binary.LittleEndian.Uint32(app[12+4*i:]))
	}
	return heads, nextDoc, ndocs, nil
}

// manifest captures the committed extent of the engine. The caller must
// have Flushed first.
func (e *Engine) manifest() *logstore.Manifest {
	m := &logstore.Manifest{
		Streams: []logstore.Stream{logstore.StreamOfWriter(streamChains, e.pw)},
		App:     e.appState(),
	}
	if e.compact != nil {
		m.Streams = append(m.Streams, logstore.StreamOfWriter(streamCompact, e.compact.pw))
	}
	return m
}

// Sync is the engine's durability point: flush every insertion buffer and
// commit. Documents acknowledged by a completed Sync survive any later
// crash. Without a journal Sync degrades to Flush.
func (e *Engine) Sync() error {
	if err := e.Flush(); err != nil {
		return err
	}
	if e.j == nil {
		return nil
	}
	return e.j.Commit(e.manifest())
}

// Reopen recovers a durable engine from rec. nbuckets must match the
// committed engine (it also sizes the fresh engine when the chip carried
// no commit record). The df vocabulary and the compact directory are
// rebuilt by scanning the committed postings; that scan is metered into
// rec's recovery statistics.
func Reopen(rec *logstore.Recovered, arena *mcu.Arena, nbuckets int) (*Engine, error) {
	app := rec.App()
	if app == nil {
		// Nothing ever committed: an empty durable engine.
		e, err := NewEngine(rec.Alloc, arena, nbuckets)
		if err != nil {
			return nil, err
		}
		e.j = rec.Journal
		return e, nil
	}
	heads, nextDoc, ndocs, err := decodeAppState(app, nbuckets)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(rec.Alloc, arena, nbuckets)
	if err != nil {
		return nil, err
	}
	pw, err := rec.OpenPageWriter(streamChains, true)
	if err != nil {
		e.bufRes.Release()
		return nil, err
	}
	e.pw = pw
	e.heads = heads
	e.nextDoc = nextDoc
	e.ndocs = ndocs
	e.j = rec.Journal

	// Rebuild the derived structures with one metered scan. Each posting
	// triple is one (term, doc) pair, so df[term] is simply the number of
	// triples carrying the term; counting through pointers costs a string
	// per distinct term, not per triple.
	var reads int64
	var buf []byte
	counts := make(map[string]*int)
	tally := func(body []byte) (last []byte) {
		for len(body) > 0 {
			var tr []byte
			tr, body = nextTriple(body)
			last = tripleTerm(tr)
			n, ok := counts[string(last)]
			if !ok {
				n = new(int)
				counts[string(last)] = n
			}
			*n++
		}
		return last
	}
	for b := 0; b < e.nbuckets; b++ {
		next := e.heads[b]
		for next >= 0 {
			img, err := readPage(e.pw.Chip(), int(next), &buf)
			if err != nil {
				e.bufRes.Release()
				return nil, err
			}
			reads++
			prev, body, err := bucketPage(img)
			if err != nil {
				e.bufRes.Release()
				return nil, err
			}
			tally(body)
			next = prev
		}
	}
	if s := rec.Stream(streamCompact); s != nil {
		cpw, err := rec.OpenPageWriter(streamCompact, true)
		if err != nil {
			e.bufRes.Release()
			return nil, err
		}
		ci := &compactIndex{pw: cpw}
		for p := 0; p < cpw.Pages(); p++ {
			body, err := ci.page(p, &buf)
			if err != nil {
				e.bufRes.Release()
				return nil, err
			}
			reads++
			if len(body) == 0 {
				e.bufRes.Release()
				return nil, fmt.Errorf("search: committed compact page %d is empty", p)
			}
			ci.dir = append(ci.dir, string(tally(body)))
		}
		e.compact = ci
	}
	for term, n := range counts {
		e.df[term] = *n
	}
	rec.MeterPageReads(reads)
	return e, nil
}
