// Log-replay recovery (DESIGN §11). Recover scans a reopened chip for the
// newest valid commit record, rebuilds the block allocator from the
// manifest it carries, reclaims every unowned block, and hands back
// adopters that reconstruct Logs and PageWriters exactly as they were at
// the committed point. All recovery I/O is metered through the
// flash_recovery_* counter families on the supplied registry, in addition
// to the chip's own operation counters.
package logstore

import (
	"fmt"

	"pds/internal/flash"
	"pds/internal/obs"
)

// RecoveryStats counts the work one Recover (plus subsequent stream
// adoptions) performed. The same numbers are mirrored into the obs
// registry under the flash_recovery_* families.
type RecoveryStats struct {
	PageReads       int64 // pages read while scanning and tail-copying
	CommitRecords   int64 // valid commit records encountered
	TornPages       int64 // written pages that failed record validation
	BlocksReclaimed int64 // unowned written blocks handed back dirty
	TailCopyPages   int64 // committed pages copied off a dirty tail block
}

// Recovered is the result of crash recovery: a rebuilt allocator, an
// adopted journal ready for the next commit, and the winning manifest
// (nil when the chip carried no commit record — an empty store).
type Recovered struct {
	Chip     *flash.Chip
	Alloc    *flash.Allocator
	Journal  *Journal
	Manifest *Manifest
	Stats    RecoveryStats

	reg *obs.Registry
}

func (r *Recovered) count(family string, d int64) {
	if r.reg != nil && d != 0 {
		r.reg.Counter(family).Add(d)
	}
}

// Recover rebuilds the committed state of chip. The chip must be a live
// (reopened) device; reg may be nil.
func Recover(chip *flash.Chip, reg *obs.Registry) (*Recovered, error) {
	g := chip.Geometry()
	r := &Recovered{Chip: chip, reg: reg}
	r.count(flash.MetricRecoveryRuns, 1)

	// Phase 1: locate the newest valid commit record by scanning every
	// written page of the fixed journal area (two blocks — the bounded
	// "superblock scan" of a real controller). The winner is the record
	// with the highest sequence number anywhere in the area; torn and
	// corrupted record pages are skipped, so no single rotten page can
	// hide a newer commit.
	var bestSeq uint64
	var bestPayload []byte
	bestBlock := -1
	// Two pages of RAM: the page under the scan and the best one so far.
	page, best := make([]byte, g.PageSize), make([]byte, g.PageSize)
	for _, b := range []int{JournalBlockA, JournalBlockB} {
		base := b * g.PagesPerBlock
		wc, err := chip.WrittenInBlock(b)
		if err != nil {
			return nil, err
		}
		for i := 0; i < wc; i++ {
			w, err := chip.Written(base + i)
			if err != nil {
				return nil, err
			}
			if !w {
				continue // hole left by an interrupted erase
			}
			n, err := chip.ReadPage(base+i, page)
			if err != nil {
				return nil, err
			}
			img := page[:n]
			r.Stats.PageReads++
			r.count(flash.MetricRecoveryPageReads, 1)
			seq, payload, ok := decodeRecord(img)
			if !ok {
				r.Stats.TornPages++
				r.count(flash.MetricRecoveryTornPages, 1)
				continue
			}
			r.Stats.CommitRecords++
			r.count(flash.MetricRecoveryCommitRecords, 1)
			if bestBlock < 0 || seq > bestSeq {
				bestSeq, bestPayload, bestBlock = seq, payload, b
				page, best = best, page
			}
		}
	}

	// Phase 2: decode + validate the winning manifest, build the in-use
	// block set. The journal area is always owned.
	used := map[int]bool{JournalBlockA: true, JournalBlockB: true}
	if bestBlock >= 0 {
		m, err := decodeManifest(bestPayload, g)
		if err != nil {
			return nil, err
		}
		m.Seq = bestSeq
		for _, s := range m.Streams {
			for _, blk := range s.Blocks {
				if blk == JournalBlockA || blk == JournalBlockB {
					return nil, fmt.Errorf("%w: stream %s owns journal-area block %d", ErrCorruptManifest, s.Name, blk)
				}
				used[blk] = true
			}
		}
		// Every committed page of every stream must actually be on flash.
		for _, s := range m.Streams {
			for p := 0; p < s.Pages; p++ {
				phys := s.Blocks[p/g.PagesPerBlock]*g.PagesPerBlock + p%g.PagesPerBlock
				w, err := chip.Written(phys)
				if err != nil {
					return nil, err
				}
				if !w {
					return nil, fmt.Errorf("%w: stream %s page %d missing from flash", ErrCorruptManifest, s.Name, p)
				}
			}
		}
		r.Manifest = m
	}

	// Phase 3: reclaim every unowned block that still holds written pages
	// (uncommitted appends, abandoned reorganizations, freed blocks whose
	// erase was still owed, interrupted erases). They are handed to the
	// allocator dirty: their erase is owed, like that of a freed block,
	// not paid here.
	usedList := make([]int, 0, len(used))
	var dirty []int
	for b := 0; b < g.Blocks; b++ {
		if used[b] {
			usedList = append(usedList, b)
			continue
		}
		wc, err := chip.WrittenInBlock(b)
		if err != nil {
			return nil, err
		}
		if wc == 0 {
			continue
		}
		dirty = append(dirty, b)
		r.Stats.BlocksReclaimed++
		r.count(flash.MetricRecoveryBlocksReclaimed, 1)
	}

	// Phase 4: rebuild the allocator and adopt the journal. The active
	// journal block is the one holding the winning record; its partner
	// may carry stale records (or a torn ping-pong record, or the
	// remains of an interrupted erase), and then it owes its erase, paid
	// in idle time or by the next ping-pong. With no record at all, the
	// journal area is wiped and the journal starts fresh.
	r.Alloc = flash.NewAllocatorWithUsed(chip, usedList, dirty)
	if bestBlock >= 0 {
		wc, err := chip.WrittenInBlock(bestBlock)
		if err != nil {
			return nil, err
		}
		r.Journal = &Journal{alloc: r.Alloc, block: bestBlock, nextPage: wc, seq: bestSeq}
		partner := JournalBlockA + JournalBlockB - bestBlock
		stale, err := chip.WrittenInBlock(partner)
		if err != nil {
			return nil, err
		}
		if stale > 0 {
			if err := r.Alloc.Owe(partner); err != nil {
				return nil, err
			}
		}
	} else {
		for _, b := range []int{JournalBlockA, JournalBlockB} {
			wc, err := chip.WrittenInBlock(b)
			if err != nil {
				return nil, err
			}
			if wc > 0 {
				if err := chip.EraseBlock(b); err != nil {
					return nil, err
				}
				r.Stats.BlocksReclaimed++
				r.count(flash.MetricRecoveryBlocksReclaimed, 1)
			}
		}
		r.Journal = &Journal{alloc: r.Alloc, block: JournalBlockA}
	}
	return r, nil
}

// Stream returns the named committed stream, or nil (no manifest, or the
// stream was never committed).
func (r *Recovered) Stream(name string) *Stream {
	if r.Manifest == nil {
		return nil
	}
	return r.Manifest.Stream(name)
}

// App returns the application payload of the winning manifest (nil if
// none).
func (r *Recovered) App() []byte {
	if r.Manifest == nil {
		return nil
	}
	return r.Manifest.App
}

// adoptWriter reconstructs a PageWriter positioned exactly at the
// committed extent of s. Two tail policies exist for a last block that
// carries uncommitted garbage pages past the committed point:
//
//   - copy (waste=false): the committed pages of the block are copied to
//     a fresh block and the dirty one is queued for retirement at the
//     next commit, restoring contiguity — the policy for logically
//     addressed streams (Logs);
//   - waste (waste=true): the programming cursor skips past the garbage,
//     keeping every physical page number stable — the policy for streams
//     addressed by physical pointers (search bucket chains).
func (r *Recovered) adoptWriter(s *Stream, waste bool) (*PageWriter, error) {
	g := r.Chip.Geometry()
	blocks := append([]int(nil), s.Blocks...)
	nextInBlock := g.PagesPerBlock
	pages := s.Pages
	if len(blocks) > 0 {
		committed := s.Pages - (len(blocks)-1)*g.PagesPerBlock
		last := blocks[len(blocks)-1]
		wc, err := r.Chip.WrittenInBlock(last)
		if err != nil {
			return nil, err
		}
		if wc < committed {
			return nil, fmt.Errorf("%w: stream %s tail holds %d pages, committed %d", ErrCorruptManifest, s.Name, wc, committed)
		}
		switch {
		case wc == committed:
			nextInBlock = committed
		case waste:
			// The cursor skips the garbage and the page count is bumped to
			// the physical extent, so the next commit record again describes
			// a physically contiguous stream (waste streams are addressed by
			// physical page number; their logical count is only an extent).
			nextInBlock = wc
			pages = (len(blocks)-1)*g.PagesPerBlock + wc
		default:
			nb, err := r.Alloc.Alloc()
			if err != nil {
				return nil, err
			}
			for i := 0; i < committed; i++ {
				img, err := r.Chip.Page(last*g.PagesPerBlock + i)
				if err != nil {
					return nil, err
				}
				r.Stats.PageReads++
				r.count(flash.MetricRecoveryPageReads, 1)
				if err := r.Chip.WritePage(nb*g.PagesPerBlock+i, img); err != nil {
					return nil, err
				}
				r.Stats.TailCopyPages++
				r.count(flash.MetricRecoveryTailCopyPages, 1)
			}
			// The on-flash manifest still references the dirty block: it
			// may only be erased once a newer commit record lands.
			r.Journal.Retire(last)
			blocks[len(blocks)-1] = nb
			nextInBlock = committed
		}
	}
	return &PageWriter{alloc: r.Alloc, blocks: blocks, nextInBlock: nextInBlock, pages: pages}, nil
}

// MeterPageReads accounts n store-level page reads (directory or summary
// rebuilds during a store's Reopen) to the recovery statistics and the
// flash_recovery_page_reads counter.
func (r *Recovered) MeterPageReads(n int64) {
	if n <= 0 {
		return
	}
	r.Stats.PageReads += n
	r.count(flash.MetricRecoveryPageReads, n)
}

// OpenLog reconstructs the named Log at its committed extent (an empty
// log when the stream was never committed). Record ids assigned before
// the crash stay valid: tail copies preserve logical page numbering.
func (r *Recovered) OpenLog(name string) (*Log, error) {
	s := r.Stream(name)
	if s == nil {
		return NewLog(r.Alloc), nil
	}
	w, err := r.adoptWriter(s, false)
	if err != nil {
		return nil, err
	}
	return &Log{w: w, recs: s.Recs, flushedRecs: s.Recs}, nil
}

// OpenSummarized reconstructs a summarized Log (see NewSummarized) from
// its data stream and its summary stream, each at its committed extent.
func (r *Recovered) OpenSummarized(dataStream, sumStream string, summarize Summarize) (*Log, error) {
	l, err := r.OpenLog(dataStream)
	if err != nil {
		return nil, err
	}
	sums, err := r.OpenLog(sumStream)
	if err != nil {
		return nil, err
	}
	l.sum = &summaries{log: sums, summarize: summarize}
	return l, nil
}

// OpenPageWriter reconstructs the named raw PageWriter. waste selects the
// tail policy (see adoptWriter); physically addressed structures must
// pass true.
func (r *Recovered) OpenPageWriter(name string, waste bool) (*PageWriter, error) {
	s := r.Stream(name)
	if s == nil {
		return NewPageWriter(r.Alloc), nil
	}
	return r.adoptWriter(s, waste)
}
