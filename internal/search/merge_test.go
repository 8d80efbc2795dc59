package search

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/mcu"
)

// fullSortReorganize is Reorganize as it stood before it merged: gather
// every chain posting and every compact posting into a temporary log,
// sort all of it, and pack the sorted stream into a fresh compact index.
// Kept as the oracle the merge is checked against.
func fullSortReorganize(e *Engine, runPages, fanIn int) error {
	if err := e.Flush(); err != nil {
		return err
	}
	alloc := e.pw.Alloc()
	tmp := logstore.NewLog(alloc)
	var buf []byte
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
		for next := e.heads[b]; next >= 0; {
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
	sorted, err := logstore.Sort(tmp, tripleLess, runPages, fanIn)
	if err != nil {
		return err
	}
	if err := tmp.Drop(); err != nil {
		return err
	}
	defer sorted.Drop()

	ci := &compactIndex{pw: logstore.NewPageWriter(alloc)}
	page := make([]byte, compactPageHeader, e.pageSize)
	cnt := 0
	var lastTerm string
	flushPage := func() error {
		if cnt == 0 {
			return nil
		}
		binary.LittleEndian.PutUint16(page[0:2], uint16(cnt))
		if _, err := ci.pw.Write(page); err != nil {
			return err
		}
		ci.dir = append(ci.dir, lastTerm)
		page, cnt = page[:compactPageHeader], 0
		return nil
	}
	it := sorted.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		if len(page)+len(rec) > e.pageSize {
			if err := flushPage(); err != nil {
				return err
			}
		}
		page = append(page, rec...)
		cnt++
		lastTerm = string(tripleTerm(rec))
	}
	if err := it.Err(); err != nil {
		return err
	}
	if err := flushPage(); err != nil {
		return err
	}

	oldPW, oldCompact := e.pw, e.compact
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
		return oldCompact.pw.Drop()
	}
	return nil
}

// compactImage is the compact index's pages, in logical order, and its
// directory.
func compactImage(t *testing.T, e *Engine) ([][]byte, []string) {
	t.Helper()
	if e.compact == nil {
		return nil, nil
	}
	pages := make([][]byte, e.compact.pw.Pages())
	for p := range pages {
		phys, err := e.compact.pw.PhysPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if pages[p], err = e.compact.pw.Chip().Page(phys); err != nil {
			t.Fatal(err)
		}
	}
	return pages, e.compact.dir
}

// mergeTestGeometry leaves room for a compact index of a few hundred
// pages in one commit record.
func mergeTestGeometry() flash.Geometry {
	return flash.Geometry{PageSize: 256, PagesPerBlock: 16, Blocks: 1024}
}

// Seeded random interleavings of indexing, flushes, reorganizations at
// every sort shape and evict/reopen cycles drive two durable engines in
// lockstep: one reorganizes by merging, the other through the full
// re-sort. After every reorganization the compact pages, byte for byte in
// logical order, and the directory must be the same.
func TestReorganizeMergeMatchesFullSort(t *testing.T) {
	const buckets, vocab = 4, 24
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type side struct {
			chip *flash.Chip
			e    *Engine
		}
		var sides [2]side
		for i := range sides {
			chip := flash.NewChip(mergeTestGeometry())
			e, err := OpenDurable(flash.NewAllocator(chip), mcu.NewArena(0), buckets)
			if err != nil {
				t.Fatal(err)
			}
			sides[i] = side{chip, e}
		}
		reorgs := 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < 80:
				doc := map[string]int{}
				for j := 0; j < 1+rng.Intn(4); j++ {
					doc[fmt.Sprintf("t%02d", rng.Intn(vocab))] = 1 + rng.Intn(9)
				}
				for _, s := range sides {
					if _, err := s.e.AddDocument(doc); err != nil {
						t.Fatal(err)
					}
				}
			case r < 86:
				for _, s := range sides {
					if err := s.e.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			case r < 95:
				runPages := []int{1, 2, 4}[rng.Intn(3)]
				fanIn := []int{2, 4}[rng.Intn(2)]
				if err := sides[0].e.Reorganize(runPages, fanIn); err != nil {
					t.Fatalf("seed %d step %d: Reorganize(%d, %d): %v", seed, step, runPages, fanIn, err)
				}
				if err := fullSortReorganize(sides[1].e, runPages, fanIn); err != nil {
					t.Fatalf("seed %d step %d: oracle: %v", seed, step, err)
				}
				gotPages, gotDir := compactImage(t, sides[0].e)
				wantPages, wantDir := compactImage(t, sides[1].e)
				if !slices.Equal(gotDir, wantDir) {
					t.Fatalf("seed %d step %d: directory %q, oracle %q", seed, step, gotDir, wantDir)
				}
				if !slices.EqualFunc(gotPages, wantPages, bytes.Equal) {
					t.Fatalf("seed %d step %d: compact pages differ from the oracle's (%d vs %d pages)",
						seed, step, len(gotPages), len(wantPages))
				}
				reorgs++
			default:
				for i := range sides {
					s := &sides[i]
					if err := s.e.Sync(); err != nil {
						t.Fatal(err)
					}
					s.e.Detach()
					rec, err := logstore.Recover(s.chip, nil)
					if err != nil {
						t.Fatal(err)
					}
					if s.e, err = Reopen(rec, mcu.NewArena(0), buckets); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if reorgs == 0 {
			t.Fatalf("seed %d: no reorganization drawn", seed)
		}
		for i := 0; i < vocab; i++ {
			term := fmt.Sprintf("t%02d", i)
			checkAgainstNaive(t, sides[0].e, term, fmt.Sprintf("seed %d", seed))
		}
	}
}

// checkAgainstNaive fails unless Search and NaiveSearch rank term's
// documents alike, and returns the ranking.
func checkAgainstNaive(t *testing.T, e *Engine, term, where string) []Result {
	t.Helper()
	got, err := e.Search([]string{term}, 1<<16)
	if err != nil {
		t.Fatalf("%s: search %q: %v", where, term, err)
	}
	want, err := e.NaiveSearch([]string{term}, 1<<16)
	if err != nil {
		t.Fatalf("%s: naive search %q: %v", where, term, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %q: %d results, naive %d", where, term, len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s: %q rank %d: %v, naive %v", where, term, i, got[i], want[i])
		}
	}
	return got
}

// The merge trusts the old compact index's order and checks it: a compact
// page whose postings the test wrote reversed makes Reorganize fail with
// ErrCompactOrder, leave the engine as it was, and free every block the
// failed attempt wrote.
func TestReorganizeRejectsOutOfOrderCompactPage(t *testing.T) {
	alloc := flash.NewAllocator(flash.NewChip(mergeTestGeometry()))
	e, err := NewEngine(alloc, mcu.NewArena(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadRandomCorpus(t, e, 200, 12, 11)
	if err := e.Reorganize(2, 4); err != nil {
		t.Fatal(err)
	}
	// Rewrite the compact index with the triples of page 1 reversed.
	bad := &compactIndex{pw: logstore.NewPageWriter(alloc), dir: e.compact.dir}
	var buf []byte
	for p := 0; p < e.compact.pw.Pages(); p++ {
		body, err := e.compact.page(p, &buf)
		if err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		for len(body) > 0 {
			var rec []byte
			rec, body = nextTriple(body)
			recs = append(recs, rec)
		}
		if p == 1 {
			slices.Reverse(recs)
		}
		img := binary.LittleEndian.AppendUint16(nil, uint16(len(recs)))
		for _, rec := range recs {
			img = append(img, rec...)
		}
		if _, err := bad.pw.Write(img); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.compact.pw.Drop(); err != nil {
		t.Fatal(err)
	}
	e.compact = bad
	loadRandomCorpus(t, e, 40, 12, 12)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	inUse, chainPages := alloc.InUse(), e.Pages()
	err = e.Reorganize(2, 4)
	if !errors.Is(err, ErrCompactOrder) {
		t.Fatalf("Reorganize over a reversed compact page = %v, want ErrCompactOrder", err)
	}
	if n := alloc.InUse(); n != inUse {
		t.Errorf("%d blocks in use after the failed reorganization, %d before", n, inUse)
	}
	if e.compact != bad || e.Pages() != chainPages {
		t.Errorf("the failed reorganization replaced the index")
	}
}

// A reorganization hit by a write fault at any of its page programs — in
// the delta's temporary log, its sort, the new compact pages, the switch
// record — must leave the engine answering exactly as before and free
// every block it wrote; the retry then succeeds. Swept over a first
// reorganization (chains only) and a second one that merges new chains
// into a compact index.
func TestReorganizeSurvivesWriteFault(t *testing.T) {
	chip := flash.NewChip(mergeTestGeometry())
	alloc := flash.NewAllocator(chip)
	e, err := OpenDurable(alloc, mcu.NewArena(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const vocab = 12
	answers := func(stage string, after int) string {
		t.Helper()
		var out bytes.Buffer
		for i := 0; i < vocab; i++ {
			term := fmt.Sprintf("w%03d", i)
			fmt.Fprintln(&out, checkAgainstNaive(t, e, term, fmt.Sprintf("%s, fault after %d", stage, after)))
		}
		return out.String()
	}
	reorganizeUnderFaults := func(stage string) {
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		before, inUse := answers(stage, -1), alloc.InUse()
		points := 0
		for after := 0; ; after++ {
			chip.InjectWriteFault(after)
			err := e.Reorganize(2, 4)
			if err == nil {
				break // the fault point lies beyond this reorganization: sweep done
			}
			if !errors.Is(err, flash.ErrInjectedFault) {
				t.Fatalf("%s, fault after %d: %v", stage, after, err)
			}
			if got := answers(stage, after); got != before {
				t.Fatalf("%s, fault after %d: answers moved", stage, after)
			}
			if n := alloc.InUse(); n != inUse {
				t.Fatalf("%s, fault after %d: %d blocks in use, %d before the reorganization", stage, after, n, inUse)
			}
			points++
		}
		chip.InjectWriteFault(-1)
		if e.CompactPages() == 0 || e.Pages() != 0 {
			t.Fatalf("%s: the reorganization did not land", stage)
		}
		if got := answers(stage, -1); got != before {
			t.Fatalf("%s: the reorganization moved the answers", stage)
		}
		t.Logf("%s: %d fault points", stage, points)
	}
	loadRandomCorpus(t, e, 100, vocab, 21)
	reorganizeUnderFaults("first reorganization")
	loadRandomCorpus(t, e, 100, vocab, 22)
	reorganizeUnderFaults("second reorganization")
}

// With the delta fixed, a reorganization's I/O grows with the compact
// index only by reading each old compact page once and writing each new
// one once: doubling the index may add at most one read per added old
// page and one write per added new page. A reorganization that re-sorts
// the whole index adds a read and a write per added page per sort pass.
func TestReorganizeIOBound(t *testing.T) {
	type cost struct {
		reads, writes   int64
		oldPages, pages int
	}
	measure := func(base int) cost {
		chip := flash.NewChip(flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 4096})
		e, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(0), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		loadRandomCorpus(t, e, base, 30, 31)
		if err := e.Reorganize(2, 4); err != nil {
			t.Fatal(err)
		}
		loadRandomCorpus(t, e, 100, 30, 32) // the same delta on either side
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		old := e.CompactPages()
		chip.ResetStats()
		if err := e.Reorganize(2, 4); err != nil {
			t.Fatal(err)
		}
		st := chip.Stats()
		return cost{st.PageReads, st.PageWrites, old, e.CompactPages()}
	}
	small, big := measure(600), measure(1200)
	t.Logf("compact %d→%d pages: %d reads, %d writes; compact %d→%d pages: %d reads, %d writes",
		small.oldPages, small.pages, small.reads, small.writes, big.oldPages, big.pages, big.reads, big.writes)
	if added := int64(big.oldPages - small.oldPages); big.reads-small.reads > added {
		t.Errorf("doubling the index added %d reads for %d old compact pages", big.reads-small.reads, added)
	}
	if added := int64(big.pages - small.pages); big.writes-small.writes > added {
		t.Errorf("doubling the index added %d writes for %d new compact pages", big.writes-small.writes, added)
	}
}
