package kv

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/race"
)

func hotKey(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func hotValue(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%d", i, i*7919)) }

// loadStore puts n keys, overwrites every seventh, flushes, and leaves a
// last few overwrites in the write buffer.
func loadStore(t *testing.T, pageSize, n int) *Store {
	t.Helper()
	s := Open(flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: pageSize, PagesPerBlock: 16, Blocks: 4096})))
	put := func(k, v int) {
		if err := s.Put(hotKey(k), hotValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		put(i, i)
	}
	for i := 0; i < n; i += 7 {
		put(i, i+n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < n; i += n / 5 {
		put(i, i+2*n)
	}
	return s
}

// wantValue is the value loadStore left under key i of n.
func wantValue(i, n int) []byte {
	switch {
	case i >= 3 && (i-3)%(n/5) == 0:
		return hotValue(i + 2*n)
	case i%7 == 0:
		return hotValue(i + n)
	}
	return hotValue(i)
}

// A get tests every summary and compares every binding where it lies;
// what it allocates is the value it returns — never per summary or per
// key page. Four times the store must cost the same.
func TestGetAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(n int) (allocs float64, pages int) {
		s := loadStore(t, 512, n)
		defer s.Close()
		key, want := hotKey(n/2), wantValue(n/2, n)
		allocs = testing.AllocsPerRun(50, func() {
			if v, _, err := s.Get(key); err != nil || string(v) != string(want) {
				t.Fatalf("Get = %q, %v", v, err)
			}
		})
		missing := testing.AllocsPerRun(50, func() {
			if _, _, err := s.Get([]byte("no such key")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing key: %v", err)
			}
		})
		if missing > 0 {
			t.Errorf("Get of an absent key: %.0f allocs over %d summary pages, want 0", missing, s.sums.Pages())
		}
		return allocs, s.keys.Pages()
	}
	small, smallPages := measure(1000)
	big, bigPages := measure(4000)
	t.Logf("%.0f allocs over %d key pages, %.0f over %d", small, smallPages, big, bigPages)
	// The value; it was 65 and 221: a filter copy per summary, then a page
	// copy, a record table and the value.
	if small > 1 || big > 1 {
		t.Errorf("Get: %.0f allocs over %d key pages, %.0f over %d; ceiling 1", small, smallPages, big, bigPages)
	}
}

// Gets on one shared store, and on stores of other page sizes, draw
// their pages from the one pool: every value must come back whole (run
// under -race).
func TestGetSharedPagesConcurrent(t *testing.T) {
	const n = 600
	stores := make([]*Store, 6)
	stores[0] = loadStore(t, 512, n)
	for g := 1; g < len(stores); g++ {
		stores[g] = stores[0]
		if g%2 == 1 {
			stores[g] = loadStore(t, 256<<(g/2), n)
		}
	}
	var wg sync.WaitGroup
	for g, s := range stores {
		wg.Add(1)
		go func(g int, s *Store) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := g; i < n; i += 3 {
					v, _, err := s.Get(hotKey(i))
					if want := wantValue(i, n); err != nil || string(v) != string(want) {
						t.Errorf("goroutine %d: Get(%d) = %q, %v; want %q", g, i, v, err, want)
						return
					}
				}
			}
		}(g, s)
	}
	wg.Wait()
}

// latest must answer as the backward walk it replaced did: the newest
// binding of the key wins, and a record that does not decode fails the
// probe only when no binding of the key follows it.
func TestLatestMatchesBackwardWalk(t *testing.T) {
	bind := func(key string, slot int32) string {
		return string(appendBinding(nil, binding{key: []byte(key), ref: logstore.RecordID{Slot: slot}}))
	}
	const bad = "\xff"
	for _, tc := range []struct {
		recs      []string
		wantSlot  int32
		wantFound bool
		wantErr   bool
	}{
		{recs: nil},
		{recs: []string{bind("other", 1)}},
		{recs: []string{bind("k", 1), bind("other", 2), bind("k", 3), bind("other", 4)}, wantSlot: 3, wantFound: true},
		{recs: []string{bad, bind("k", 2)}, wantSlot: 2, wantFound: true},
		{recs: []string{bind("k", 1), bad}, wantErr: true},
		{recs: []string{bind("k", 1), bad, bind("other", 3)}, wantErr: true},
		{recs: []string{bad, bind("other", 3)}, wantErr: true},
	} {
		l := logstore.NewLog(flash.NewAllocator(flash.NewChip(flash.SmallGeometry())))
		for _, r := range tc.recs {
			if _, err := l.Append([]byte(r)); err != nil {
				t.Fatal(err)
			}
		}
		b, found, err := latest(l.Unflushed(), []byte("k"))
		if found != tc.wantFound || (err != nil) != tc.wantErr || (found && b.ref.Slot != tc.wantSlot) {
			t.Errorf("latest(%q) = slot %d, %v, %v; want slot %d, %v, err %v",
				tc.recs, b.ref.Slot, found, err, tc.wantSlot, tc.wantFound, tc.wantErr)
		}
	}
}
