package logstore

import (
	"bytes"
	"fmt"
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

// FuzzSortMatchesStable holds Sort to the implementation it replaced: the
// same records in the same order, the same page reads, writes and erases,
// and the same bytes on every page of the chip, for any record set, RAM
// budget, fan-in and comparator.
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
			// Records of 1 to 8 bytes, cut from data by its own bytes.
			for rest := data; len(rest) > 0; {
				n := min(int(rest[0]%8)+1, len(rest))
				if _, err := l.Append(rest[:n]); err != nil {
					t.Fatal(err)
				}
				rest = rest[n:]
			}
			return l, chip
		}
		src, chip := load()
		oracleSrc, oracleChip := load()
		got, err := Sort(src, less, rp, fi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sortOracle(oracleSrc, less, rp, fi)
		if err != nil {
			t.Fatal(err)
		}
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
	})
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
