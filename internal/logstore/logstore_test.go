package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"pds/internal/flash"
)

func testAlloc() *flash.Allocator {
	return flash.NewAllocator(flash.NewChip(flash.SmallGeometry()))
}

func TestPageWriterSequential(t *testing.T) {
	a := testAlloc()
	w := NewPageWriter(a)
	g := a.Chip().Geometry()
	var phys []int
	for i := 0; i < g.PagesPerBlock*2+3; i++ {
		p, err := w.Write([]byte{byte(i)})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		phys = append(phys, p)
	}
	if w.Pages() != len(phys) {
		t.Errorf("Pages = %d, want %d", w.Pages(), len(phys))
	}
	if len(w.Blocks()) != 3 {
		t.Errorf("Blocks = %d, want 3", len(w.Blocks()))
	}
	for i, p := range phys {
		got, err := w.PhysPage(i)
		if err != nil || got != p {
			t.Errorf("PhysPage(%d) = (%d, %v), want %d", i, got, err, p)
		}
		img, _ := a.Chip().Page(p)
		if len(img) != 1 || img[0] != byte(i) {
			t.Errorf("page %d content = %v", i, img)
		}
	}
	if _, err := w.PhysPage(len(phys)); !errors.Is(err, ErrBadRecordID) {
		t.Errorf("PhysPage OOB err = %v", err)
	}
}

func TestPageWriterDrop(t *testing.T) {
	a := testAlloc()
	w := NewPageWriter(a)
	for i := 0; i < 20; i++ {
		w.Write([]byte{1})
	}
	used := a.InUse()
	if used == 0 {
		t.Fatal("no blocks allocated")
	}
	if err := w.Drop(); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 {
		t.Errorf("blocks still in use after drop: %d", a.InUse())
	}
	if _, err := w.Write([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("write after drop err = %v", err)
	}
	if err := w.Drop(); err != nil {
		t.Errorf("second drop: %v", err)
	}
}

func TestLogAppendIter(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	var want [][]byte
	for i := 0; i < 500; i++ {
		rec := []byte(fmt.Sprintf("record-%04d", i))
		want = append(want, rec)
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 500 {
		t.Errorf("Len = %d", l.Len())
	}
	// Iterate WITHOUT flushing: buffered tail must still be served.
	it := l.Iter()
	i := 0
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		if !bytes.Equal(rec, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, rec, want[i])
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != 500 {
		t.Errorf("iterated %d records, want 500", i)
	}
}

func TestLogReadAt(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	ids := make([]RecordID, 0, 100)
	for i := 0; i < 100; i++ {
		id, err := l.Append([]byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Some records are flushed, the tail is buffered; both must read back.
	for i, id := range ids {
		got, err := l.ReadAt(id)
		if err != nil {
			t.Fatalf("ReadAt(%v): %v", id, err)
		}
		if want := fmt.Sprintf("v%d", i); string(got) != want {
			t.Errorf("ReadAt(%v) = %q, want %q", id, got, want)
		}
	}
	if _, err := l.ReadAt(RecordID{Page: 999, Slot: 0}); err == nil {
		t.Error("ReadAt far page succeeded")
	}
	if _, err := l.ReadAt(RecordID{Page: 0, Slot: 999}); !errors.Is(err, ErrBadRecordID) {
		t.Errorf("ReadAt bad slot err = %v", err)
	}
}

func TestLogRecordTooLarge(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	big := make([]byte, a.Chip().Geometry().PageSize)
	if _, err := l.Append(big); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized append err = %v", err)
	}
	// Exactly max fits.
	max := make([]byte, MaxRecord(a.Chip().Geometry()))
	if _, err := l.Append(max); err != nil {
		t.Errorf("max-size append: %v", err)
	}
}

func TestLogEmptyFlushAndIter(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Pages() != 0 {
		t.Errorf("empty log pages = %d", l.Pages())
	}
	if _, _, ok := l.Iter().Next(); ok {
		t.Error("empty log iterator returned a record")
	}
}

func TestLogEmptyRecords(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	for i := 0; i < 5; i++ {
		if _, err := l.Append(nil); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	n := 0
	it := l.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		if len(rec) != 0 {
			t.Errorf("empty record read back as %v", rec)
		}
		n++
	}
	if n != 5 {
		t.Errorf("got %d empty records, want 5", n)
	}
}

func TestLogDropFreesBlocks(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	for i := 0; i < 1000; i++ {
		l.Append([]byte("xxxxxxxxxxxxxxxx"))
	}
	l.Flush()
	if a.InUse() == 0 {
		t.Fatal("expected allocated blocks")
	}
	if err := l.Drop(); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 {
		t.Errorf("InUse after drop = %d", a.InUse())
	}
}

func TestLogSequentialWritePattern(t *testing.T) {
	// The essential Part II property: a log never rewrites a page and
	// never erases during normal appends.
	a := testAlloc()
	l := NewLog(a)
	a.Chip().ResetStats()
	for i := 0; i < 2000; i++ {
		if _, err := l.Append([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	s := a.Chip().Stats()
	if s.BlockErases != 0 {
		t.Errorf("appends caused %d erases", s.BlockErases)
	}
	if s.PageWrites != int64(l.Pages()) {
		t.Errorf("writes = %d, pages = %d (random rewrites?)", s.PageWrites, l.Pages())
	}
}

func sortedCheck(t *testing.T, l *Log, less func(a, b []byte) bool, wantN int) {
	t.Helper()
	it := l.Iter()
	var prev []byte
	n := 0
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		if prev != nil && less(rec, prev) {
			t.Fatalf("out of order at %d: %q after %q", n, rec, prev)
		}
		prev = append(prev[:0], rec...)
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != wantN {
		t.Fatalf("sorted log has %d records, want %d", n, wantN)
	}
}

func TestSortSmall(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	n := 300
	for i := n - 1; i >= 0; i-- {
		l.Append([]byte(fmt.Sprintf("%05d", i)))
	}
	less := func(x, y []byte) bool { return bytes.Compare(x, y) < 0 }
	out, err := Sort(l, less, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sortedCheck(t, out, less, n)
}

func TestSortMultiPassMerge(t *testing.T) {
	// runPages=1 and fanIn=2 forces many runs and multiple merge passes.
	a := flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: 64, PagesPerBlock: 4, Blocks: 512}))
	l := NewLog(a)
	n := 400
	for i := 0; i < n; i++ {
		// Reverse-ish and duplicated keys.
		l.Append([]byte(fmt.Sprintf("%04d", (n-i)%37)))
	}
	less := func(x, y []byte) bool { return bytes.Compare(x, y) < 0 }
	out, err := Sort(l, less, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sortedCheck(t, out, less, n)
	// Intermediate runs must have been freed: only src + out remain.
	if used := a.InUse(); used != len(l.Blocks())+len(out.Blocks()) {
		t.Errorf("leaked blocks: inUse=%d src=%d out=%d", used, len(l.Blocks()), len(out.Blocks()))
	}
}

func TestSortEmpty(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	out, err := Sort(l, func(x, y []byte) bool { return bytes.Compare(x, y) < 0 }, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("sorted empty log has %d records", out.Len())
	}
}

func TestSortBadParams(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	less := func(x, y []byte) bool { return false }
	if _, err := Sort(l, less, 0, 2); err == nil {
		t.Error("runPages=0 accepted")
	}
	if _, err := Sort(l, less, 1, 1); err == nil {
		t.Error("fanIn=1 accepted")
	}
}

func TestSortStability(t *testing.T) {
	// Records with equal keys keep their original order (needed by index
	// reorganization to preserve insertion recency semantics).
	a := testAlloc()
	l := NewLog(a)
	for i := 0; i < 50; i++ {
		l.Append([]byte(fmt.Sprintf("k%d-%02d", i%3, i)))
	}
	less := func(x, y []byte) bool { return bytes.Compare(x[:2], y[:2]) < 0 }
	out, err := Sort(l, less, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	it := out.Iter()
	lastSeq := map[string]int{}
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		key := string(rec[:2])
		var seq int
		fmt.Sscanf(string(rec[3:]), "%d", &seq)
		if prev, seen := lastSeq[key]; seen && seq < prev {
			t.Fatalf("stability violated for %s: %d after %d", key, seq, prev)
		}
		lastSeq[key] = seq
	}
}

// Property: sorting any record multiset yields the same multiset, ordered.
func TestQuickSortPermutation(t *testing.T) {
	f := func(vals []uint16) bool {
		a := flash.NewAllocator(flash.NewChip(flash.Geometry{PageSize: 64, PagesPerBlock: 4, Blocks: 1024}))
		l := NewLog(a)
		counts := map[string]int{}
		for _, v := range vals {
			rec := []byte(fmt.Sprintf("%05d", v))
			counts[string(rec)]++
			if _, err := l.Append(rec); err != nil {
				return false
			}
		}
		less := func(x, y []byte) bool { return bytes.Compare(x, y) < 0 }
		out, err := Sort(l, less, 1, 3)
		if err != nil {
			return false
		}
		it := out.Iter()
		var prev []byte
		for {
			rec, _, ok := it.Next()
			if !ok {
				break
			}
			if prev != nil && bytes.Compare(rec, prev) < 0 {
				return false
			}
			prev = append(prev[:0], rec...)
			counts[string(rec)]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOnFlushHook(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	var pages []int
	var counts []int
	buf := l.PageBuf()
	defer PutPageBuf(buf)
	l.OnFlush(func(page int) error {
		// The page is on flash by the time the hook runs.
		v, err := l.ReadPage(page, *buf)
		pages = append(pages, page)
		counts = append(counts, v.Len())
		return err
	})
	for i := 0; i < 100; i++ {
		if _, err := l.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(pages) != l.Pages() {
		t.Fatalf("hook fired %d times for %d pages", len(pages), l.Pages())
	}
	total := 0
	for i, p := range pages {
		if p != i {
			t.Errorf("hook page %d fired as %d", i, p)
		}
		total += counts[i]
	}
	if total != 100 {
		t.Errorf("hook saw %d records, want 100", total)
	}
}

func TestOnFlushHookErrorPropagates(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	boom := errors.New("summary build failed")
	l.OnFlush(func(int) error { return boom })
	l.Append([]byte("x"))
	if err := l.Flush(); !errors.Is(err, boom) {
		t.Errorf("flush err = %v, want hook error", err)
	}
}

func TestReadPageAndUnflushed(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	for i := 0; i < 60; i++ {
		l.Append([]byte(fmt.Sprintf("rec-%02d-0123456789", i)))
	}
	if l.Pages() == 0 {
		t.Fatal("expected flushed pages")
	}
	buf := l.PageBuf()
	defer PutPageBuf(buf)
	v, err := l.ReadPage(0, *buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := v.Next(); !ok || string(rec) != "rec-00-0123456789" {
		t.Errorf("page 0 first record = %q, %v", rec, ok)
	}
	if _, err := l.ReadPage(l.Pages(), *buf); !errors.Is(err, ErrBadRecordID) {
		t.Errorf("OOB page err = %v", err)
	}
	// Flushed + unflushed must cover all 60 records exactly once, in order.
	next := 0
	walk := func(v PageView) {
		for {
			rec, ok := v.Next()
			if !ok {
				return
			}
			if want := fmt.Sprintf("rec-%02d-0123456789", next); string(rec) != want {
				t.Fatalf("record %d = %q, want %q", next, rec, want)
			}
			next++
		}
	}
	before := l.Chip().Stats().PageReads
	for p := 0; p < l.Pages(); p++ {
		v, err := l.ReadPage(p, *buf)
		if err != nil {
			t.Fatal(err)
		}
		walk(v)
	}
	if got := l.Chip().Stats().PageReads - before; got != int64(l.Pages()) {
		t.Errorf("%d page reads for %d pages", got, l.Pages())
	}
	flushed := next
	before = l.Chip().Stats().PageReads
	walk(l.Unflushed())
	if next != 60 || next == flushed {
		t.Errorf("flushed %d + unflushed %d != 60", flushed, next-flushed)
	}
	if got := l.Chip().Stats().PageReads - before; got != 0 {
		t.Errorf("Unflushed cost %d page reads", got)
	}
	// ViewHeld and ReadAt agree on both sides of the flush boundary; only
	// ReadAt's result survives the held page's next read.
	var h HeldPage
	defer h.Release()
	for _, id := range []RecordID{{Page: 0, Slot: 3}, {Page: int32(l.Pages()), Slot: 0}} {
		kept, err := l.ReadAt(id)
		if err != nil {
			t.Fatal(err)
		}
		view, err := l.ViewHeld(id, &h)
		if err != nil || !bytes.Equal(view, kept) {
			t.Fatalf("ViewHeld(%v) = %q, %v; ReadAt = %q", id, view, err, kept)
		}
		want := string(kept)
		if _, err := l.ViewHeld(RecordID{Page: 1, Slot: 0}, &h); err != nil {
			t.Fatal(err)
		}
		if string(kept) != want {
			t.Errorf("ReadAt(%v) aliases the held page", id)
		}
	}
	// A fetch from the page h holds reads nothing.
	before = l.Chip().Stats().PageReads
	if _, err := l.ViewHeld(RecordID{Page: 1, Slot: 1}, &h); err != nil {
		t.Fatal(err)
	}
	if got := l.Chip().Stats().PageReads - before; got != 0 {
		t.Errorf("fetch from the held page cost %d page reads", got)
	}
	if _, err := l.ViewHeld(RecordID{Page: int32(l.Pages()), Slot: int32(60 - flushed)}, &h); !errors.Is(err, ErrBadRecordID) {
		t.Errorf("slot past the write buffer: err = %v", err)
	}
}

// A drained iterator hands its page back and stays drained.
func TestIteratorStaysDrained(t *testing.T) {
	l := NewLog(testAlloc())
	for i := 0; i < 60; i++ {
		l.Append([]byte(fmt.Sprintf("rec-%02d-0123456789", i)))
	}
	it := l.Iter()
	n := 0
	for {
		if _, _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 60 || it.Err() != nil {
		t.Fatalf("iterated %d records, err %v", n, it.Err())
	}
	l.Append([]byte("late"))
	if rec, _, ok := it.Next(); ok {
		t.Errorf("drained iterator yielded %q", rec)
	}
}

func TestLogAllocAccessor(t *testing.T) {
	a := testAlloc()
	l := NewLog(a)
	if l.Alloc() != a {
		t.Error("Alloc() mismatch")
	}
	w := NewPageWriter(a)
	if w.Alloc() != a {
		t.Error("PageWriter.Alloc() mismatch")
	}
}
