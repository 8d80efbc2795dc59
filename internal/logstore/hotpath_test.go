package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pds/internal/flash"
	"pds/internal/race"
)

// sortComparators are the shapes of less the engines hand to Sort: a total
// order, an order on a key prefix (ties, so stability shows), and the
// engines' "a corrupt record is before nothing" rule, which is not even
// transitive — the typed heap must still merge exactly as the boxed one.
var sortComparators = []func(a, b []byte) bool{
	func(a, b []byte) bool { return bytes.Compare(a, b) < 0 },
	func(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && a[0] < b[0] },
	func(a, b []byte) bool {
		if len(a) < 2 || len(b) < 2 || a[0] == 0xFF || b[0] == 0xFF {
			return false
		}
		return a[1] < b[1]
	},
}

// drain reads a whole log.
func drain(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	it := l.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, append([]byte(nil), rec...))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// chipPages is every programmed page of a chip, by number.
func chipPages(t *testing.T, chip *flash.Chip) map[int]string {
	t.Helper()
	pages := map[int]string{}
	for n := 0; n < chip.Geometry().TotalPages(); n++ {
		if ok, _ := chip.Written(n); ok {
			img, err := chip.Page(n)
			if err != nil {
				t.Fatal(err)
			}
			pages[n] = string(img)
		}
	}
	return pages
}

// records is a SortStream source over a whole log.
func records(l *Log) sourceFunc {
	it := l.Iter()
	return func() ([]byte, bool, error) {
		rec, _, ok := it.Next()
		return rec, ok, it.Err()
	}
}

// sourceFunc is a Source that calls itself.
type sourceFunc func() ([]byte, bool, error)

func (f sourceFunc) Next() ([]byte, bool, error) { return f() }

// FuzzSortMatchesStable holds Sort to the implementation it replaced: the
// same records in the same order, the same page reads, writes and erases,
// and the same bytes on every page of the chip, for any record set, RAM
// budget, fan-in and comparator. It holds SortStream to the same oracle:
// the same records, the same reads and owed erases (erased, or freed and
// still dirty), and only the runs' pages programmed — none at all for an
// input that fits one batch — and every block back once the stream is
// dropped.
func FuzzSortMatchesStable(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(1), uint8(2), uint8(0))
	f.Add(bytes.Repeat([]byte{3, 1, 2, 0xFF, 9, 1, 1, 7}, 40), uint8(2), uint8(3), uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF, 2, 5, 1, 9, 9, 0, 4, 4}, 60), uint8(1), uint8(4), uint8(2))
	f.Add([]byte{}, uint8(1), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, runPages, fanIn, mode uint8) {
		geo := flash.Geometry{PageSize: 64, PagesPerBlock: 4, Blocks: 512}
		rp, fi := int(runPages%4)+1, int(fanIn%5)+2
		less := sortComparators[int(mode)%len(sortComparators)]
		if len(data) > 4096 {
			data = data[:4096]
		}
		load := func() (*Log, *flash.Chip) {
			chip := flash.NewChip(geo)
			l := NewLog(flash.NewAllocator(chip))
			appendAll(t, l, cutRecords(data))
			return l, chip
		}
		src, chip := load()
		oracleSrc, oracleChip := load()
		streamSrc, streamChip := load()
		got, err := Sort(src, less, rp, fi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sortOracle(oracleSrc, less, rp, fi)
		if err != nil {
			t.Fatal(err)
		}
		oracleCost := oracleChip.Stats()
		oracleOwed := oracleCost.BlockErases + int64(oracleSrc.Alloc().Dirty())
		gotRecs, wantRecs := drain(t, got), drain(t, want)
		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("Sort yields %d records, the oracle %d", len(gotRecs), len(wantRecs))
		}
		for i := range gotRecs {
			if !bytes.Equal(gotRecs[i], wantRecs[i]) {
				t.Fatalf("record %d = %x, the oracle has %x", i, gotRecs[i], wantRecs[i])
			}
		}
		if g, w := chip.Stats(), oracleChip.Stats(); g != w {
			t.Fatalf("Sort cost %v, the oracle %v", g, w)
		}
		gotPages, wantPages := chipPages(t, chip), chipPages(t, oracleChip)
		if len(gotPages) != len(wantPages) {
			t.Fatalf("%d pages programmed, the oracle left %d", len(gotPages), len(wantPages))
		}
		for n, img := range wantPages {
			if gotPages[n] != img {
				t.Fatalf("page %d differs from the oracle's", n)
			}
		}

		if err := streamSrc.Flush(); err != nil {
			t.Fatal(err)
		}
		alloc := streamSrc.Alloc()
		inUse, before := alloc.InUse(), streamChip.Stats()
		s, err := SortStream(alloc, nil, records(streamSrc), less, rp, fi)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			rec, ok := s.Next()
			if !ok {
				if i != len(wantRecs) {
					t.Fatalf("SortStream yields %d records, the oracle %d", i, len(wantRecs))
				}
				break
			}
			if i == len(wantRecs) || !bytes.Equal(rec, wantRecs[i]) {
				t.Fatalf("streamed record %d = %x, the oracle has %d records", i, rec, len(wantRecs))
			}
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if err := s.Drop(); err != nil {
			t.Fatal(err)
		}
		if n := alloc.InUse(); n != inUse {
			t.Fatalf("%d blocks in use after Drop, %d before the sort", n, inUse)
		}
		g, w := streamChip.Stats(), oracleCost
		owed := g.BlockErases + int64(alloc.Dirty())
		if g.PageReads != w.PageReads || owed != oracleOwed || g.PageWrites != w.PageWrites-int64(want.Pages()) {
			t.Fatalf("SortStream cost %v owing %d erases, the oracle %v owing %d with a %d-page result",
				g, owed, w, oracleOwed, want.Pages())
		}
		// The batch closes on the record that reaches the budget: the input
		// fits one batch when no record before the last one does.
		fits, batch := true, 0
		for rest := data; len(rest) > 0; {
			if batch >= rp*geo.PageSize {
				fits = false
			}
			n := min(int(rest[0]%8)+1, len(rest))
			batch += n + slotHeader
			rest = rest[n:]
		}
		if d := g.Sub(before); fits && (d.PageWrites != 0 || d.BlockErases != 0) {
			t.Fatalf("an input of one batch cost %v", d)
		}

		// The same sort folded into an old structure: a log of the records
		// cut from data's first half, each marked with a trailing byte so
		// that it differs from the input's record it ties with, and sorted
		// in RAM. A stable sort is only defined for an order, so the
		// engines' corrupt-record rule sits this half out.
		if int(mode)%len(sortComparators) == 2 {
			return
		}
		cmp := func(a, b []byte) int {
			if less(a, b) {
				return -1
			}
			return 0
		}
		oldRecs := cutRecords(data[:len(data)/2])
		for i, rec := range oldRecs {
			oldRecs[i] = append(slices.Clip(rec), 0xEE)
		}
		slices.SortStableFunc(oldRecs, cmp)
		foldSrc, foldChip := load()
		plain, plainOwed := g.Sub(before), owed
		alloc = foldSrc.Alloc()
		oldLog := NewLog(alloc)
		appendAll(t, oldLog, oldRecs)
		if err := errors.Join(foldSrc.Flush(), oldLog.Flush()); err != nil {
			t.Fatal(err)
		}
		inUse, before = alloc.InUse(), foldChip.Stats()
		oldReads, oldSrc := 0, records(oldLog)
		s, err = SortStream(alloc, sourceFunc(func() ([]byte, bool, error) {
			rec, ok, err := oldSrc()
			if ok {
				oldReads++
			}
			return rec, ok, err
		}), records(foldSrc), less, rp, fi)
		if err != nil {
			t.Fatal(err)
		}
		folded := slices.Concat(oldRecs, cutRecords(data))
		slices.SortStableFunc(folded, cmp)
		for i := 0; ; i++ {
			rec, ok := s.Next()
			if !ok {
				if i != len(folded) {
					t.Fatalf("the fold yields %d records, the stable sort %d", i, len(folded))
				}
				break
			}
			if i == len(folded) || !bytes.Equal(rec, folded[i]) {
				t.Fatalf("folded record %d = %x, the stable sort has %d records", i, rec, len(folded))
			}
		}
		if err := errors.Join(s.Err(), s.Drop()); err != nil {
			t.Fatal(err)
		}
		if oldReads != len(oldRecs) {
			t.Fatalf("the fold read %d records of an old structure of %d", oldReads, len(oldRecs))
		}
		if n := alloc.InUse(); n != inUse {
			t.Fatalf("%d blocks in use after Drop, %d before the fold", n, inUse)
		}
		fold := foldChip.Stats().Sub(before)
		foldOwed := fold.BlockErases + int64(alloc.Dirty())
		if fold.PageReads != plain.PageReads+int64(oldLog.Pages()) || fold.PageWrites != plain.PageWrites || foldOwed != plainOwed {
			t.Fatalf("the fold cost %v owing %d erases; the plain sort %v owing %d, and old has %d pages",
				fold, foldOwed, plain, plainOwed, oldLog.Pages())
		}
	})
}

// cutRecords cuts data into records of 1 to 8 bytes by its own bytes.
func cutRecords(data []byte) [][]byte {
	var recs [][]byte
	for rest := data; len(rest) > 0; {
		n := min(int(rest[0]%8)+1, len(rest))
		recs = append(recs, rest[:n])
		rest = rest[n:]
	}
	return recs
}

// appendAll appends recs to l.
func appendAll(t *testing.T, l *Log, recs [][]byte) {
	t.Helper()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// An external sort allocates per run and per merge input — logs, their
// page of RAM, an iterator's page — never per record: ten times the
// records through the same number of runs must cost the same.
func TestSortAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	less := func(a, b []byte) bool { return bytes.Compare(a, b) < 0 }
	measure := func(pageSize, records int) (allocs float64, runs int) {
		geo := flash.Geometry{PageSize: pageSize, PagesPerBlock: 8, Blocks: 256}
		src := NewLog(flash.NewAllocator(flash.NewChip(geo)))
		for i := 0; i < records; i++ {
			if _, err := src.Append([]byte(fmt.Sprintf("rec-%07d", (i*7919)%records))); err != nil {
				t.Fatal(err)
			}
		}
		// A run closes on the 13-byte slot that fills two pages.
		perRun := (2*pageSize + 12) / 13
		runs = (records + perRun - 1) / perRun
		allocs = testing.AllocsPerRun(3, func() {
			out, err := Sort(src, less, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != records {
				t.Fatalf("sorted %d of %d records", out.Len(), records)
			}
			if err := out.Drop(); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, runs
	}
	small, runs := measure(256, 400)
	big, bigRuns := measure(2600, 4000)
	if runs != bigRuns {
		t.Fatalf("the two inputs sort into %d and %d runs; the comparison needs them equal", runs, bigRuns)
	}
	t.Logf("%d runs: %.0f allocs for 400 records, %.0f for 4000", runs, small, big)
	if big > small*1.25 {
		t.Errorf("Sort allocates per record: %.0f allocs for 400 records, %.0f for 4000 in as many runs", small, big)
	}
	if perRun := small / float64(runs); perRun > 25 {
		t.Errorf("Sort: %.1f allocs per run, ceiling 25", perRun)
	}
}

// Logs of different page sizes, each on its own goroutine, draw their
// ReadAt scratch from the one pool: every record must come back whole
// (run under -race).
func TestReadAtSharedScratchConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			geo := flash.Geometry{PageSize: 64 << (g % 3), PagesPerBlock: 4, Blocks: 64}
			l := NewLog(flash.NewAllocator(flash.NewChip(geo)))
			var ids []RecordID
			for i := 0; i < 200; i++ {
				id, err := l.Append([]byte(fmt.Sprintf("g%d-record-%03d", g, i)))
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, id)
			}
			for round := 0; round < 5; round++ {
				for i, id := range ids {
					rec, err := l.ReadAt(id)
					if want := fmt.Sprintf("g%d-record-%03d", g, i); err != nil || string(rec) != want {
						t.Errorf("ReadAt(%v) = %q, %v; want %q", id, rec, err, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// A write fault at any page program of a multi-pass SortStream — in run
// formation or in any merge pass — surfaces as the typed fault and leaves
// no block allocated; past the last program the sort succeeds, in order.
// Folded into an old structure, the sort programs the same pages and the
// old structure's blocks stay its own.
func TestSortStreamWriteFaultLeaksNothing(t *testing.T) {
	for _, fold := range []bool{false, true} {
		t.Run(fmt.Sprintf("fold=%v", fold), func(t *testing.T) {
			chip := flash.NewChip(flash.Geometry{PageSize: 64, PagesPerBlock: 4, Blocks: 512})
			alloc := flash.NewAllocator(chip)
			src, old := NewLog(alloc), NewLog(alloc)
			const n = 300
			for i := 0; i < n; i++ {
				if _, err := src.Append([]byte(fmt.Sprintf("r%05d", (i*7919)%n))); err != nil {
					t.Fatal(err)
				}
			}
			oldRecs := 0
			for i := 0; fold && i < n; i += 3 {
				if _, err := old.Append([]byte(fmt.Sprintf("r%05d-old", i))); err != nil {
					t.Fatal(err)
				}
				oldRecs++
			}
			if err := errors.Join(src.Flush(), old.Flush()); err != nil {
				t.Fatal(err)
			}
			less := func(a, b []byte) bool { return bytes.Compare(a, b) < 0 }
			inUse := alloc.InUse()
			for after := 0; ; after++ {
				chip.InjectWriteFault(after)
				var oldSrc Source
				if fold {
					oldSrc = records(old)
				}
				s, err := SortStream(alloc, oldSrc, records(src), less, 1, 2)
				if n := alloc.InUse(); n != inUse && err != nil {
					t.Fatalf("fault after %d: %d blocks in use, %d before the sort", after, n, inUse)
				}
				if err == nil {
					chip.InjectWriteFault(-1)
					// Runs of one page merged two at a time: several passes.
					if after < 3*src.Pages() {
						t.Fatalf("the sort programmed %d pages over a %d-page input; want several merge passes", after, src.Pages())
					}
					var prev []byte
					got := 0
					for rec, ok := s.Next(); ok; rec, ok = s.Next() {
						if prev != nil && bytes.Compare(prev, rec) > 0 {
							t.Fatalf("record %d = %q after %q", got, rec, prev)
						}
						prev = append(prev[:0], rec...)
						got++
					}
					if err := errors.Join(s.Err(), s.Drop()); err != nil || got != n+oldRecs {
						t.Fatalf("sorted %d of %d records: %v", got, n+oldRecs, err)
					}
					if m := alloc.InUse(); m != inUse {
						t.Fatalf("%d blocks in use after Drop, %d before the sort", m, inUse)
					}
					return
				}
				if !errors.Is(err, flash.ErrInjectedFault) {
					t.Fatalf("fault after %d: %v", after, err)
				}
			}
		})
	}
}
