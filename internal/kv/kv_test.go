package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pds/internal/flash"
)

func testStore() *Store {
	return Open(flash.NewAllocator(flash.NewChip(flash.Geometry{
		PageSize: 512, PagesPerBlock: 16, Blocks: 4096,
	})))
}

func TestPutGet(t *testing.T) {
	s := testStore()
	defer s.Close()
	if err := s.Put([]byte("name"), []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Get([]byte("name"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "alice" {
		t.Errorf("Get = %q", v)
	}
	if _, _, err := s.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key err = %v", err)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	s := testStore()
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte("counter"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		// Interleave other keys so bindings spread over pages.
		s.Put([]byte(fmt.Sprintf("other-%d", i)), []byte("x"))
	}
	v, _, err := s.Get([]byte("counter"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v199" {
		t.Errorf("latest = %q, want v199", v)
	}
	// Also after an explicit flush (all bindings on flash).
	s.Flush()
	v, _, err = s.Get([]byte("counter"))
	if err != nil || string(v) != "v199" {
		t.Errorf("latest after flush = %q, %v", v, err)
	}
}

func TestDelete(t *testing.T) {
	s := testStore()
	defer s.Close()
	s.Put([]byte("k"), []byte("v"))
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key err = %v", err)
	}
	// Put after delete resurrects.
	s.Put([]byte("k"), []byte("v2"))
	v, _, err := s.Get([]byte("k"))
	if err != nil || string(v) != "v2" {
		t.Errorf("resurrected = %q, %v", v, err)
	}
}

func TestGetMatchesScanGet(t *testing.T) {
	s := testStore()
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%02d", rng.Intn(40)))
		switch rng.Intn(5) {
		case 0:
			s.Delete(k)
		default:
			s.Put(k, []byte(fmt.Sprintf("val-%d", i)))
		}
	}
	s.Flush()
	for i := 0; i < 40; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		a, _, errA := s.Get(k)
		b, errB := s.ScanGet(k)
		if errors.Is(errA, ErrNotFound) != errors.Is(errB, ErrNotFound) {
			t.Fatalf("key %s: Get err=%v ScanGet err=%v", k, errA, errB)
		}
		if errA == nil && !bytes.Equal(a, b) {
			t.Errorf("key %s: Get=%q ScanGet=%q", k, a, b)
		}
	}
}

func TestGetCheaperThanScan(t *testing.T) {
	s := testStore()
	defer s.Close()
	for i := 0; i < 3000; i++ {
		s.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte("v"), 40))
	}
	s.Flush()
	chip := s.alloc.Chip()

	chip.ResetStats()
	if _, _, err := s.Get([]byte("key-1500")); err != nil {
		t.Fatal(err)
	}
	getIO := chip.Stats().PageReads

	chip.ResetStats()
	if _, err := s.ScanGet([]byte("key-1500")); err != nil {
		t.Fatal(err)
	}
	scanIO := chip.Stats().PageReads
	if getIO*3 > scanIO {
		t.Errorf("summary get %d IOs vs scan %d; want >=3x saving", getIO, scanIO)
	}
}

func TestCompact(t *testing.T) {
	s := testStore()
	defer s.Close()
	for round := 0; round < 10; round++ {
		for i := 0; i < 50; i++ {
			s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("r%d-i%d", round, i)))
		}
	}
	for i := 0; i < 10; i++ {
		s.Delete([]byte(fmt.Sprintf("k%02d", i)))
	}
	s.Flush()
	before := s.Pages()
	if err := s.Compact(2, 4); err != nil {
		t.Fatal(err)
	}
	if s.Pages() >= before {
		t.Errorf("compaction did not shrink: %d -> %d pages", before, s.Pages())
	}
	if s.Len() != 40 {
		t.Errorf("live keys after compact = %d, want 40", s.Len())
	}
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		v, _, err := s.Get(k)
		if i < 10 {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("tombstoned %s survived compaction: %q", k, v)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%s) after compact: %v", k, err)
		}
		if want := fmt.Sprintf("r9-i%d", i); string(v) != want {
			t.Errorf("Get(%s) = %q, want %q", k, v, want)
		}
	}
	// The store stays writable after compaction.
	if err := s.Put([]byte("new"), []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Get([]byte("new"))
	if err != nil || string(v) != "post-compact" {
		t.Errorf("post-compact put = %q, %v", v, err)
	}
}

func TestCompactEmpty(t *testing.T) {
	s := testStore()
	defer s.Close()
	if err := s.Compact(1, 2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestCompactFreesBlocks(t *testing.T) {
	alloc := flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 2048}))
	s := Open(alloc)
	defer s.Close()
	for round := 0; round < 20; round++ {
		for i := 0; i < 20; i++ {
			s.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("x"), 50))
		}
	}
	s.Flush()
	before := alloc.InUse()
	if err := s.Compact(2, 4); err != nil {
		t.Fatal(err)
	}
	if alloc.InUse() >= before {
		t.Errorf("compaction leaked blocks: %d -> %d", before, alloc.InUse())
	}
}

func TestKeyTooLarge(t *testing.T) {
	s := testStore()
	defer s.Close()
	if err := s.Put(make([]byte, 2000), nil); !errors.Is(err, ErrKeyTooLarge) {
		t.Errorf("oversized key err = %v", err)
	}
}

// A key whose binding cannot fit a key-log page is refused before the
// value log is touched, so no orphan value is left behind; the longest
// key that fits is stored.
func TestKeyTooLargeLeavesNoValue(t *testing.T) {
	s := Open(flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 64})))
	defer s.Close()
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	values := s.values.Len()
	for _, n := range []int{300, 256 - 6 - 2 - 10} {
		if err := s.Put(make([]byte, n), []byte("orphan")); !errors.Is(err, ErrKeyTooLarge) {
			t.Errorf("%d-byte key on 256-byte pages: err = %v, want ErrKeyTooLarge", n, err)
		}
		if err := s.Delete(make([]byte, n)); !errors.Is(err, ErrKeyTooLarge) {
			t.Errorf("delete of a %d-byte key: err = %v, want ErrKeyTooLarge", n, err)
		}
	}
	if got := s.values.Len(); got != values {
		t.Errorf("refused puts appended %d value records", got-values)
	}
	longest := bytes.Repeat([]byte("x"), 256-6-2-11)
	if err := s.Put(longest, []byte("fits")); err != nil {
		t.Fatalf("%d-byte key: %v", len(longest), err)
	}
	if v, _, err := s.Get(longest); err != nil || string(v) != "fits" {
		t.Fatalf("get of the longest key = %q, %v", v, err)
	}
}

func TestClosedStore(t *testing.T) {
	s := testStore()
	s.Close()
	if err := s.Put([]byte("k"), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close err = %v", err)
	}
	if _, _, err := s.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close err = %v", err)
	}
	if err := s.Compact(1, 2); !errors.Is(err, ErrClosed) {
		t.Errorf("compact after close err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestNoErasesDuringNormalOperation(t *testing.T) {
	s := testStore()
	defer s.Close()
	s.alloc.Chip().ResetStats()
	for i := 0; i < 2000; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i%100)), []byte("value"))
	}
	s.Flush()
	if e := s.alloc.Chip().Stats().BlockErases; e != 0 {
		t.Errorf("puts caused %d erases", e)
	}
}

// Property: the store behaves like a map under any put/delete sequence,
// before and after compaction.
func TestQuickMapEquivalence(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
	}
	f := func(ops []op, compactAt uint8) bool {
		s := testStore()
		defer s.Close()
		ref := map[string]string{}
		check := func() bool {
			for k := 0; k < 16; k++ {
				key := []byte(fmt.Sprintf("k%d", k))
				got, _, err := s.Get(key)
				want, exists := ref[string(key)]
				if exists != (err == nil) {
					return false
				}
				if exists && string(got) != want {
					return false
				}
			}
			return true
		}
		for i, o := range ops {
			key := []byte(fmt.Sprintf("k%d", o.Key%16))
			if o.Delete {
				if s.Delete(key) != nil {
					return false
				}
				delete(ref, string(key))
			} else {
				val := fmt.Sprintf("v%d", o.Val)
				if s.Put(key, []byte(val)) != nil {
					return false
				}
				ref[string(key)] = val
			}
			if i == int(compactAt) {
				if s.Compact(1, 2) != nil {
					return false
				}
				if !check() {
					return false
				}
			}
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A compaction hit by a write fault at any of its page programs — in the
// sort's runs and merge passes, in the new value, key and summary logs, in
// the switch record — must leave the store answering exactly as before
// and free every block it wrote; the retry then succeeds. Swept over a
// first compaction, a second one whose leading run is the first's output
// and whose delta of puts and deletes takes several runs, and a third
// with no delta at all.
func TestCompactSurvivesWriteFault(t *testing.T) {
	chip := flash.NewChip(flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 512})
	alloc := flash.NewAllocator(chip)
	s, err := OpenDurable(alloc)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keys = 40
	rng := rand.New(rand.NewSource(3))
	load := func(puts int) {
		for i := 0; i < puts; i++ {
			k := []byte(fmt.Sprintf("key-%02d", rng.Intn(keys)))
			if rng.Intn(10) == 0 {
				if err := s.Delete(k); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := s.Put(k, []byte(fmt.Sprintf("value-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// answers renders every key's Get after checking it against ScanGet.
	answers := func(stage string, after int) string {
		t.Helper()
		var out bytes.Buffer
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("key-%02d", i))
			got, _, err := s.Get(k)
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s, fault after %d: get %s: %v", stage, after, k, err)
			}
			want, werr := s.ScanGet(k)
			if !bytes.Equal(got, want) || errors.Is(err, ErrNotFound) != errors.Is(werr, ErrNotFound) {
				t.Fatalf("%s, fault after %d: get %s = %q, %v; scan %q, %v", stage, after, k, got, err, want, werr)
			}
			fmt.Fprintf(&out, "%s=%q ", k, got)
		}
		return out.String()
	}
	compactUnderFaults := func(stage string) {
		before, inUse := answers(stage, -1), alloc.InUse()
		for after := 0; ; after++ {
			chip.InjectWriteFault(after)
			err := s.Compact(2, 4)
			if err == nil {
				break // the fault point lies beyond this compaction: sweep done
			}
			if !errors.Is(err, flash.ErrInjectedFault) {
				t.Fatalf("%s, fault after %d: %v", stage, after, err)
			}
			if got := answers(stage, after); got != before {
				t.Fatalf("%s, fault after %d: answers moved", stage, after)
			}
			if n := alloc.InUse(); n != inUse {
				t.Fatalf("%s, fault after %d: %d blocks in use, %d before the compaction", stage, after, n, inUse)
			}
		}
		chip.InjectWriteFault(-1)
		if got := answers(stage, -1); got != before {
			t.Fatalf("%s: the compaction moved the answers", stage)
		}
	}
	load(300)
	compactUnderFaults("first compaction")
	load(200)
	compactUnderFaults("second compaction")
	compactUnderFaults("compaction of a compacted store")
}
