package search

import (
	"fmt"
	"testing"

	"pds/internal/flash"
	"pds/internal/mcu"
	"pds/internal/race"
)

// Reorganize gathers, sorts and packs triples where they lie in page
// images: what it allocates is the logs and page buffers of the external
// sort and one directory string per compact page — per run and per page,
// never per posting. Ten times the postings through the same number of
// runs and compact pages must cost the same.
func TestReorganizeAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(pageSize, docs int) (allocs float64, triples int) {
		chip := flash.NewChip(flash.Geometry{PageSize: pageSize, PagesPerBlock: 8, Blocks: 512})
		e, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(0), 4)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < docs; d++ {
			doc := map[string]int{
				fmt.Sprintf("term-%02d", d%10):       d%4 + 1,
				fmt.Sprintf("term-%02d", (d*5+1)%10): d%3 + 1,
				fmt.Sprintf("term-%02d", (d*7+3)%10): 1,
			}
			if _, err := e.AddDocument(doc); err != nil {
				t.Fatal(err)
			}
			triples += len(doc)
		}
		// The first pass reads bucket chains, every later one the compact
		// index it left: both walks are measured.
		allocs = testing.AllocsPerRun(4, func() {
			if err := e.Reorganize(2, 4); err != nil {
				t.Fatal(err)
			}
		})
		if got := e.DocFreq("term-03"); got == 0 {
			t.Fatal("vocabulary lost")
		}
		res, err := e.Search([]string{"term-03", "term-07"}, 5)
		if err != nil || len(res) != 5 {
			t.Fatalf("search after reorganize: %d results, %v", len(res), err)
		}
		return allocs, triples
	}
	small, triples := measure(256, 120)
	big, bigTriples := measure(2560, 1200)
	t.Logf("%.0f allocs for %d postings, %.0f for %d", small, triples, big, bigTriples)
	if big > small*1.25 {
		t.Errorf("Reorganize allocates per posting: %.0f allocs for %d postings, %.0f for %d on pages ten times the size",
			small, triples, big, bigTriples)
	}
	// Eleven runs, four merges, some twenty compact pages; it was 7397.
	if small > 300 {
		t.Errorf("Reorganize: %.0f allocs for %d postings, ceiling 300", small, triples)
	}
}
