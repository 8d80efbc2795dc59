package kv

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/race"
)

// fullSortCompact is Compact as it stood before it merged its leading run:
// externally sort the whole key log into a log on flash, then rebuild from
// it. Kept as the oracle the merge is checked against.
func fullSortCompact(s *Store, runPages, fanIn int) error {
	if err := s.Flush(); err != nil {
		return err
	}
	sorted, err := logstore.Sort(s.keys, bindingLess, runPages, fanIn)
	if err != nil {
		return err
	}
	defer sorted.Drop()
	it := sorted.Iter()
	next, err := s.rebuild(func() (binding, bool, error) {
		rec, _, ok := it.Next()
		if !ok {
			return binding{}, false, it.Err()
		}
		b, err := decodeBinding(rec)
		return b, err == nil, err
	})
	if err != nil {
		return err
	}
	return s.switchTo(next)
}

// logRecords is every record of l, in logical order.
func logRecords(t *testing.T, l *logstore.Log) []string {
	t.Helper()
	var out []string
	it := l.Iter()
	for rec, _, ok := it.Next(); ok; rec, _, ok = it.Next() {
		out = append(out, string(rec))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// summaryRecords returns the records of s's summary log, u32 page |
// summary, in order.
func summaryRecords(t *testing.T, s *Store) []string {
	t.Helper()
	var out []string
	if err := s.keys.Summaries(func(page int, sum []byte) error {
		out = append(out, string(binary.LittleEndian.AppendUint32(nil, uint32(page)))+string(sum))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// Seeded interleavings of puts, deletes, compactions at every sort shape
// and sync → recover → reopen cycles, on two stores: one compacts with
// Compact, the other with the full sort. After every compaction their
// value, key and summary logs hold the same records in the same order,
// and both answer every key as a map does. Odd seeds start with puts whose
// keys ascend, a tombstone among them, so the first leading run is not a
// compaction's.
func TestCompactMergeMatchesFullSort(t *testing.T) {
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 1024}
	for seed := int64(1); seed <= 4; seed++ {
		for _, runPages := range []int{1, 2, 4} {
			for _, fanIn := range []int{2, 4} {
				t.Run(fmt.Sprintf("seed%d/runs%d/fanin%d", seed, runPages, fanIn), func(t *testing.T) {
					compareCompactions(t, geo, seed, runPages, fanIn)
				})
			}
		}
	}
}

func compareCompactions(t *testing.T, geo flash.Geometry, seed int64, runPages, fanIn int) {
	chips := [2]*flash.Chip{flash.NewChip(geo), flash.NewChip(geo)}
	var stores [2]*Store
	for i, chip := range chips {
		s, err := OpenDurable(flash.NewAllocator(chip))
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	model := map[string]string{}
	rng := rand.New(rand.NewSource(seed))
	universe := 20 + rng.Intn(40)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	both := func(what string, f func(s *Store) error) {
		t.Helper()
		for i, s := range stores {
			if err := f(s); err != nil {
				t.Fatalf("%s on store %d: %v", what, i, err)
			}
		}
	}
	put := func(k []byte, v string) {
		both("put", func(s *Store) error { return s.Put(k, []byte(v)) })
		model[string(k)] = v
	}
	del := func(k []byte) {
		both("delete", func(s *Store) error { return s.Delete(k) })
		delete(model, string(k))
	}
	check := func(stage string) {
		t.Helper()
		for i := 0; i < universe; i++ {
			for j, s := range stores {
				got, _, err := s.Get(key(i))
				want, ok := model[string(key(i))]
				if ok != (err == nil) || (ok && string(got) != want) {
					t.Fatalf("%s: store %d: get %s = %q, %v; want %q", stage, j, key(i), got, err, want)
				}
			}
		}
	}
	compactions := 0
	compact := func() {
		t.Helper()
		if err := stores[0].Compact(runPages, fanIn); err != nil {
			t.Fatal(err)
		}
		if err := fullSortCompact(stores[1], runPages, fanIn); err != nil {
			t.Fatal(err)
		}
		compactions++
		stage := fmt.Sprintf("compaction %d", compactions)
		for _, records := range []func(s *Store) []string{
			func(s *Store) []string { return logRecords(t, s.values) },
			func(s *Store) []string { return logRecords(t, s.keys) },
			func(s *Store) []string { return summaryRecords(t, s) },
		} {
			if got, want := records(stores[0]), records(stores[1]); !slices.Equal(got, want) {
				t.Fatalf("%s: the merge wrote %d records %q, the full sort %d %q", stage, len(got), got, len(want), want)
			}
		}
		if a, b := stores[0].Len(), stores[1].Len(); a != b {
			t.Fatalf("%s: %d bindings after the merge, %d after the full sort", stage, a, b)
		}
		check(stage)
	}
	if seed%2 == 1 {
		for i := 0; i < universe; i += 2 {
			if i == 6 {
				del(key(i))
				continue
			}
			put(key(i), fmt.Sprintf("first-%d", i))
		}
	}
	// Seeds 3 and 4 compact rarely, so their deltas span many runs and
	// merge passes.
	every := 8
	if seed > 2 {
		every = 2
	}
	for op := 0; op < 500; op++ {
		switch x := rng.Intn(100); {
		case x < 15:
			del(key(rng.Intn(universe)))
		case x < 15+every:
			compact()
		case x < 19+every:
			both("sync", func(s *Store) error { return s.Sync() })
			for i, chip := range chips {
				rec, err := logstore.Recover(chip, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stores[i], err = Reopen(rec); err != nil {
					t.Fatal(err)
				}
			}
			check("reopen")
		case x >= 98:
			// A compaction of a compacted store: the leading run is all.
			compact()
			compact()
		default:
			put(key(rng.Intn(universe)), fmt.Sprintf("v%d-%s", op, make([]byte, rng.Intn(30))))
		}
	}
	compact()
}

// With a fixed delta, doubling the live keys adds only the reads of the
// leading run's pages — twice over its key pages (one pass finds its end,
// one merges it) and once over its value pages — and a delta that fits
// the sort's RAM programs only the new logs' pages and owes only the
// erases of the old logs' blocks (erased, or freed and still dirty).
func TestCompactIOBound(t *testing.T) {
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 1024}
	measure := func(live int) (cost flash.Stats, keyPages, valuePages int) {
		chip := flash.NewChip(geo)
		alloc := flash.NewAllocator(chip)
		s := Open(alloc)
		defer s.Close()
		for i := 0; i < live; i++ {
			if err := s.Put(hotKey(i), hotValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Compact(2, 4); err != nil {
			t.Fatal(err)
		}
		keyPages, valuePages = s.keys.Pages(), s.values.Pages()
		// Ten overwrites and ten new keys: 20 bindings of 23 bytes, one
		// batch of two 256-byte pages.
		for i := 0; i < 10; i++ {
			if err := s.Put(hotKey(3*i), hotValue(live+i)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(hotKey(live+i), hotValue(live+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		oldBlocks := len(s.values.Blocks()) + len(s.keys.Blocks()) + len(s.keys.SummaryStream(streamSums).Blocks)
		before, dirty := chip.Stats(), alloc.Dirty()
		if err := s.Compact(2, 4); err != nil {
			t.Fatal(err)
		}
		cost = chip.Stats().Sub(before)
		owed := cost.BlockErases + int64(alloc.Dirty()-dirty)
		if w := s.Pages(); cost.PageWrites != int64(w) {
			t.Errorf("%d live keys: the compaction programmed %d pages, its new logs hold %d", live, cost.PageWrites, w)
		}
		if owed != int64(oldBlocks) {
			t.Errorf("%d live keys: the compaction owes %d erases, the old logs held %d blocks", live, owed, oldBlocks)
		}
		for i := 0; i < live+10; i++ {
			want := hotValue(i)
			switch {
			case i < 30 && i%3 == 0:
				want = hotValue(live + i/3)
			case i >= live:
				want = hotValue(i)
			}
			if v, _, err := s.Get(hotKey(i)); err != nil || string(v) != string(want) {
				t.Fatalf("%d live keys: get %d = %q, %v; want %q", live, i, v, err, want)
			}
		}
		return cost, keyPages, valuePages
	}
	small, smallKeys, smallValues := measure(100)
	big, bigKeys, bigValues := measure(200)
	t.Logf("%d live keys: %v; %d: %v", 100, small, 200, big)
	if bigKeys <= smallKeys {
		t.Fatalf("the leading run did not grow: %d key pages, then %d", smallKeys, bigKeys)
	}
	bound := 2*(bigKeys-smallKeys) + (bigValues - smallValues)
	if added := big.PageReads - small.PageReads; added > int64(bound) {
		t.Errorf("doubling the live keys added %d reads; the leading run grew by %d key and %d value pages, bound %d",
			added, bigKeys-smallKeys, bigValues-smallValues, bound)
	}
}

// A compaction allocates per compaction and per page written — logs,
// iterators, a Bloom summary per key page — never per binding: ten times
// the bindings on pages ten times the size must cost the same.
func TestCompactAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(pageSize, live int) float64 {
		stores := make([]*Store, 4)
		for i := range stores {
			s := Open(flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: pageSize, PagesPerBlock: 8, Blocks: 512})))
			defer s.Close()
			for k := 0; k < live; k++ {
				if err := s.Put(hotKey(k), hotValue(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Compact(2, 4); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < live/2; k++ {
				if err := s.Put(hotKey(2*k), hotValue(live+k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			stores[i] = s
		}
		next := 0
		return testing.AllocsPerRun(len(stores)-1, func() {
			if err := stores[next].Compact(2, 4); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	small := measure(256, 40)
	big := measure(2560, 400)
	t.Logf("%.0f allocs for 60 bindings, %.0f for 600", small, big)
	if big > small*1.25 {
		t.Errorf("Compact allocates per binding: %.0f allocs for 60 bindings, %.0f for 600 on pages ten times the size", small, big)
	}
	// 36 for 60 bindings: the leading run the sort folds in is read
	// through the Store's own field. As a closure over a fresh iterator
	// and its counter, escaping into the sort, it cost 39.
	if small > 60 {
		t.Errorf("Compact: %.0f allocs for 60 bindings, ceiling 60", small)
	}
}
