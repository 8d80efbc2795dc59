package search

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"pds/internal/flash"
	"pds/internal/mcu"
	"pds/internal/race"
)

// Reorganize gathers, sorts and merges triples where they lie in page
// images: what it allocates is the logs and page buffers of the delta's
// external sort and one directory string per compact page — per run and
// per page, never per posting. Ten times the postings through the same
// number of runs and compact pages must cost the same.
func TestReorganizeAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(pageSize, docs int) (allocs float64, triples int) {
		load := func(e *Engine, from int) {
			for d := from; d < from+docs; d++ {
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
		}
		// Every measured pass sorts a delta of docs documents in the chains
		// and merges it into a compact index of as many: one engine per
		// pass, the warm-up's included, each built before the measurement.
		engines := make([]*Engine, 5)
		for i := range engines {
			chip := flash.NewChip(flash.Geometry{PageSize: pageSize, PagesPerBlock: 8, Blocks: 512})
			e, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(0), 4)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			triples = 0
			load(e, 0)
			if err := e.Reorganize(2, 4); err != nil {
				t.Fatal(err)
			}
			load(e, docs)
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			engines[i] = e
		}
		next := 0
		allocs = testing.AllocsPerRun(len(engines)-1, func() {
			if err := engines[next].Reorganize(2, 4); err != nil {
				t.Fatal(err)
			}
			next++
		})
		e := engines[len(engines)-1]
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
	// A 336-posting delta sorted in runs of two pages and merged with as
	// many compact postings: 288. Re-sorting both, as Reorganize did before
	// it merged, took 516.
	if small > 300 {
		t.Errorf("Reorganize: %.0f allocs for %d postings, ceiling 300", small, triples)
	}
}

// A search reads every chain and compact page of its keywords into pooled
// cursors: what it allocates is bounded by the keyword count and topN —
// the dedup set, the reservation, the heap and its boxed entries, the
// result — never by the pages or postings it merges. Ten times the
// corpus must cost the same.
func TestSearchAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(docs int) (allocs float64, pages int64) {
		chip := flash.NewChip(flash.Geometry{PageSize: 512, PagesPerBlock: 8, Blocks: 4096})
		e, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(0), 4)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < docs; d++ {
			if d == docs*3/4 {
				// The bulk is compact, the tail stays in bucket chains.
				if err := e.Reorganize(2, 4); err != nil {
					t.Fatal(err)
				}
			}
			doc := map[string]int{
				fmt.Sprintf("term-%02d", d%10):       d%4 + 1,
				fmt.Sprintf("term-%02d", (d*7+3)%10): 1,
				fmt.Sprintf("rare-%04d", d):          1,
			}
			if _, err := e.AddDocument(doc); err != nil {
				t.Fatal(err)
			}
		}
		keywords := []string{"term-03", "term-07"}
		before := chip.Stats().PageReads
		allocs = testing.AllocsPerRun(10, func() {
			if res, err := e.Search(keywords, 5); err != nil || len(res) != 5 {
				t.Fatalf("search: %d results, %v", len(res), err)
			}
		})
		return allocs, (chip.Stats().PageReads - before) / 11
	}
	small, smallPages := measure(200)
	big, bigPages := measure(2000)
	t.Logf("%.0f allocs over %d page reads, %.0f over %d", small, smallPages, big, bigPages)
	if big > small {
		t.Errorf("Search allocates per page: %.0f allocs over %d page reads, %.0f over %d", small, smallPages, big, bigPages)
	}
	// Two keywords, five results; it was 32, with a cursor, its page and
	// its growing posting slab per keyword.
	if small > 18 {
		t.Errorf("Search: %.0f allocs, ceiling 18", small)
	}
}

// Engines of different page sizes, each searched from its own goroutine,
// draw their cursors — page and posting slab — from the one pool: every
// pipelined answer must equal the naive one computed beforehand (run
// under -race).
func TestSearchSharedCursorsConcurrent(t *testing.T) {
	type fixture struct {
		e    *Engine
		want map[string][]Result
	}
	queries := [][]string{{"term-03", "term-07"}, {"term-01"}, {"term-05", "term-09", "absent"}}
	fixtures := make([]fixture, 6)
	for g := range fixtures {
		chip := flash.NewChip(flash.Geometry{PageSize: 256 << (g % 3), PagesPerBlock: 8, Blocks: 2048})
		e, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(0), 4)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 600; d++ {
			if d == 400 {
				if err := e.Reorganize(2, 4); err != nil {
					t.Fatal(err)
				}
			}
			doc := map[string]int{
				fmt.Sprintf("term-%02d", (d+g)%10):   d%4 + 1,
				fmt.Sprintf("term-%02d", (d*7+3)%10): 1,
			}
			if _, err := e.AddDocument(doc); err != nil {
				t.Fatal(err)
			}
		}
		fixtures[g] = fixture{e: e, want: map[string][]Result{}}
		for _, q := range queries {
			want, err := e.NaiveSearch(q, 7)
			if err != nil {
				t.Fatal(err)
			}
			fixtures[g].want[fmt.Sprint(q)] = want
		}
	}
	var wg sync.WaitGroup
	for g, fx := range fixtures {
		wg.Add(1)
		go func(g int, fx fixture) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, q := range queries {
					got, err := fx.e.Search(q, 7)
					want := fx.want[fmt.Sprint(q)]
					if err != nil || len(got) != len(want) {
						t.Errorf("engine %d: search %v = %d results, %v; want %d", g, q, len(got), err, len(want))
						return
					}
					for i := range got {
						if got[i].Doc != want[i].Doc || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
							t.Errorf("engine %d: search %v result %d = %v, want %v", g, q, i, got[i], want[i])
							return
						}
					}
				}
			}
		}(g, fx)
	}
	wg.Wait()
}
