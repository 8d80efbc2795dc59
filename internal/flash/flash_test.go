package flash

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		g  Geometry
		ok bool
	}{
		{Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 4}, true},
		{Geometry{PageSize: 0, PagesPerBlock: 8, Blocks: 4}, false},
		{Geometry{PageSize: 256, PagesPerBlock: 0, Blocks: 4}, false},
		{Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 0}, false},
		{Geometry{PageSize: -1, PagesPerBlock: -1, Blocks: -1}, false},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.g, err, c.ok)
		}
	}
}

func TestGeometryTotals(t *testing.T) {
	g := Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 64}
	if got := g.TotalPages(); got != 512 {
		t.Errorf("TotalPages = %d, want 512", got)
	}
	if got := g.TotalBytes(); got != 256*512 {
		t.Errorf("TotalBytes = %d, want %d", got, 256*512)
	}
}

func TestNewChipPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChip with bad geometry did not panic")
		}
	}()
	NewChip(Geometry{})
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := NewChip(SmallGeometry())
	want := []byte("hello flash")
	if err := c.WritePage(0, want); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	got, err := c.Page(0)
	if err != nil {
		t.Fatalf("Page: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Page(0) = %q, want %q", got, want)
	}
	buf := make([]byte, 4)
	n, err := c.ReadPage(0, buf)
	if err != nil || n != 4 {
		t.Fatalf("ReadPage = (%d, %v), want (4, nil)", n, err)
	}
	if !bytes.Equal(buf, want[:4]) {
		t.Errorf("partial read = %q, want %q", buf, want[:4])
	}
}

func TestReadErasedPage(t *testing.T) {
	c := NewChip(SmallGeometry())
	p, err := c.Page(3)
	if err != nil {
		t.Fatalf("Page: %v", err)
	}
	if p != nil {
		t.Errorf("erased page content = %v, want nil", p)
	}
	n, err := c.ReadPage(3, make([]byte, 8))
	if err != nil || n != 0 {
		t.Errorf("ReadPage erased = (%d, %v), want (0, nil)", n, err)
	}
}

func TestOverwriteRejected(t *testing.T) {
	c := NewChip(SmallGeometry())
	if err := c.WritePage(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := c.WritePage(0, []byte("b"))
	if !errors.Is(err, ErrOverwrite) {
		t.Errorf("overwrite err = %v, want ErrOverwrite", err)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	c := NewChip(SmallGeometry())
	// Page 1 before page 0 within block 0.
	err := c.WritePage(1, []byte("x"))
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order err = %v, want ErrOutOfOrder", err)
	}
	// Writing in order works across blocks independently.
	g := c.Geometry()
	if err := c.WritePage(g.PagesPerBlock, []byte("b1p0")); err != nil {
		t.Errorf("first page of block 1: %v", err)
	}
	if err := c.WritePage(0, []byte("b0p0")); err != nil {
		t.Errorf("first page of block 0 after block 1: %v", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	c := NewChip(SmallGeometry())
	total := c.Geometry().TotalPages()
	if err := c.WritePage(total, nil); !errors.Is(err, ErrBounds) {
		t.Errorf("WritePage OOB err = %v, want ErrBounds", err)
	}
	if _, err := c.ReadPage(-1, nil); !errors.Is(err, ErrBounds) {
		t.Errorf("ReadPage OOB err = %v, want ErrBounds", err)
	}
	if _, err := c.Page(total); !errors.Is(err, ErrBounds) {
		t.Errorf("Page OOB err = %v, want ErrBounds", err)
	}
	if err := c.EraseBlock(c.Geometry().Blocks); !errors.Is(err, ErrBounds) {
		t.Errorf("EraseBlock OOB err = %v, want ErrBounds", err)
	}
	if _, err := c.Wear(-1); !errors.Is(err, ErrBounds) {
		t.Errorf("Wear OOB err = %v, want ErrBounds", err)
	}
	if _, err := c.Written(total); !errors.Is(err, ErrBounds) {
		t.Errorf("Written OOB err = %v, want ErrBounds", err)
	}
}

func TestTooLargeRejected(t *testing.T) {
	c := NewChip(SmallGeometry())
	big := make([]byte, c.Geometry().PageSize+1)
	if err := c.WritePage(0, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized write err = %v, want ErrTooLarge", err)
	}
}

func TestEraseEnablesRewrite(t *testing.T) {
	c := NewChip(SmallGeometry())
	if err := c.WritePage(0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePage(0, []byte("v2")); err != nil {
		t.Fatalf("rewrite after erase: %v", err)
	}
	got, _ := c.Page(0)
	if string(got) != "v2" {
		t.Errorf("after erase+rewrite = %q, want v2", got)
	}
	w, _ := c.Wear(0)
	if w != 1 {
		t.Errorf("wear = %d, want 1", w)
	}
}

func TestWrittenFlag(t *testing.T) {
	c := NewChip(SmallGeometry())
	if w, _ := c.Written(0); w {
		t.Error("fresh page reported written")
	}
	c.WritePage(0, []byte("x"))
	if w, _ := c.Written(0); !w {
		t.Error("programmed page reported erased")
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewChip(SmallGeometry())
	c.WritePage(0, []byte("a"))
	c.WritePage(1, []byte("b"))
	c.Page(0)
	c.ReadPage(1, make([]byte, 1))
	c.EraseBlock(0)
	s := c.Stats()
	want := Stats{PageReads: 2, PageWrites: 2, BlockErases: 1}
	if s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
	c.ResetStats()
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestStatsFailedOpsNotCounted(t *testing.T) {
	c := NewChip(SmallGeometry())
	c.WritePage(1, []byte("x")) // out of order: fails
	c.WritePage(0, make([]byte, c.Geometry().PageSize+1))
	if s := c.Stats(); s.PageWrites != 0 {
		t.Errorf("failed writes counted: %+v", s)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{PageReads: 10, PageWrites: 5, BlockErases: 1}
	b := Stats{PageReads: 3, PageWrites: 2, BlockErases: 1}
	if got := a.Add(b); got != (Stats{13, 7, 2}) {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (Stats{7, 3, 0}) {
		t.Errorf("Sub = %+v", got)
	}
}

func TestStatsCost(t *testing.T) {
	m := CostModel{ReadPage: time.Microsecond, WritePage: 10 * time.Microsecond, EraseBlock: 100 * time.Microsecond}
	s := Stats{PageReads: 2, PageWrites: 3, BlockErases: 1}
	want := 2*time.Microsecond + 30*time.Microsecond + 100*time.Microsecond
	if got := s.Cost(m); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if DefaultCostModel().WritePage <= DefaultCostModel().ReadPage {
		t.Error("default model should make writes costlier than reads")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{PageReads: 1, PageWrites: 2, BlockErases: 3}
	if got := s.String(); got != "reads=1 writes=2 erases=3" {
		t.Errorf("String = %q", got)
	}
}

func TestWriteIsolation(t *testing.T) {
	// The chip must copy the caller's buffer.
	c := NewChip(SmallGeometry())
	buf := []byte("mutable")
	c.WritePage(0, buf)
	buf[0] = 'X'
	got, _ := c.Page(0)
	if string(got) != "mutable" {
		t.Errorf("chip aliased caller buffer: %q", got)
	}
}

func TestAllocatorLifecycle(t *testing.T) {
	c := NewChip(SmallGeometry())
	a := NewAllocator(c)
	total := c.Geometry().Blocks
	if a.FreeBlocks() != total || a.InUse() != 0 {
		t.Fatalf("fresh allocator free=%d inuse=%d", a.FreeBlocks(), a.InUse())
	}
	b1, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if b1 == b2 {
		t.Fatalf("Alloc returned duplicate block %d", b1)
	}
	if a.InUse() != 2 {
		t.Errorf("InUse = %d, want 2", a.InUse())
	}
	// Write into b1, free it, verify erase happened.
	p := b1 * c.Geometry().PagesPerBlock
	if err := c.WritePage(p, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b1); err != nil {
		t.Fatal(err)
	}
	if w, _ := c.Written(p); w {
		t.Error("freed block not erased")
	}
	if err := a.Free(b1); err == nil {
		t.Error("double free succeeded")
	}
	if a.Chip() != c {
		t.Error("Chip() mismatch")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	c := NewChip(Geometry{PageSize: 64, PagesPerBlock: 2, Blocks: 3})
	a := NewAllocator(c)
	for i := 0; i < 3; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(); !errors.Is(err, ErrNoSpace) {
		t.Errorf("exhausted alloc err = %v, want ErrNoSpace", err)
	}
}

func TestAllocatorDeterministicOrder(t *testing.T) {
	c := NewChip(SmallGeometry())
	a := NewAllocator(c)
	b0, _ := a.Alloc()
	b1, _ := a.Alloc()
	if b0 != 0 || b1 != 1 {
		t.Errorf("allocation order = %d,%d, want 0,1", b0, b1)
	}
}

// Property: any sequence of in-order writes round-trips, and the number of
// successful writes equals the PageWrites counter.
func TestQuickSequentialWritesRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		g := Geometry{PageSize: 64, PagesPerBlock: 4, Blocks: 32}
		c := NewChip(g)
		n := len(payloads)
		if n > g.TotalPages() {
			n = g.TotalPages()
		}
		var wrote int64
		for i := 0; i < n; i++ {
			p := payloads[i]
			if len(p) > g.PageSize {
				p = p[:g.PageSize]
			}
			if err := c.WritePage(i, p); err != nil {
				return false
			}
			wrote++
			got, err := c.Page(i)
			if err != nil {
				return false
			}
			if len(p) == 0 {
				// Empty writes store empty non-nil slices; read back as written.
				if len(got) != 0 {
					return false
				}
			} else if !bytes.Equal(got, p) {
				return false
			}
		}
		return c.Stats().PageWrites == wrote
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: erase always restores a block to fully writable state.
func TestQuickEraseRestores(t *testing.T) {
	f := func(rounds uint8) bool {
		g := Geometry{PageSize: 32, PagesPerBlock: 4, Blocks: 2}
		c := NewChip(g)
		for r := 0; r < int(rounds%20)+1; r++ {
			for p := 0; p < g.PagesPerBlock; p++ {
				if err := c.WritePage(p, []byte{byte(r), byte(p)}); err != nil {
					return false
				}
			}
			if err := c.EraseBlock(0); err != nil {
				return false
			}
		}
		w, _ := c.Written(0)
		return !w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentWritersDistinctBlocks(t *testing.T) {
	g := Geometry{PageSize: 64, PagesPerBlock: 8, Blocks: 16}
	c := NewChip(g)
	done := make(chan error, g.Blocks)
	for b := 0; b < g.Blocks; b++ {
		go func(b int) {
			for p := 0; p < g.PagesPerBlock; p++ {
				if err := c.WritePage(b*g.PagesPerBlock+p, []byte{byte(b), byte(p)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(b)
	}
	for b := 0; b < g.Blocks; b++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().PageWrites; got != int64(g.TotalPages()) {
		t.Errorf("writes = %d, want %d", got, g.TotalPages())
	}
}

// The page table is materialised up to the highest block ever programmed.
// A block past it reads, reports, crashes and reopens exactly as an
// erased block inside it does.
func TestNeverWrittenBlocksBehaveErased(t *testing.T) {
	g := SmallGeometry()
	c := NewChip(g)
	if err := c.WritePage(g.PagesPerBlock, []byte("low")); err != nil { // block 1
		t.Fatal(err)
	}
	far := (g.Blocks - 1) * g.PagesPerBlock
	for _, n := range []int{0, far, far + g.PagesPerBlock - 1} {
		if img, err := c.Page(n); err != nil || img != nil {
			t.Errorf("Page(%d) = %v, %v; want nil, nil", n, img, err)
		}
		dst := []byte("untouched")
		if got, err := c.ReadPage(n, dst); err != nil || got != 0 || string(dst) != "untouched" {
			t.Errorf("ReadPage(%d) = %d, %v, dst %q", n, got, err, dst)
		}
		if w, err := c.Written(n); err != nil || w {
			t.Errorf("Written(%d) = %v, %v", n, w, err)
		}
	}
	if got := c.Stats().PageReads; got != 6 {
		t.Errorf("PageReads = %d, want 6: reads of erased pages are metered too", got)
	}
	for _, b := range []int{0, g.Blocks - 1} {
		if n, err := c.WrittenInBlock(b); err != nil || n != 0 {
			t.Errorf("WrittenInBlock(%d) = %d, %v", b, n, err)
		}
		if err := c.EraseBlock(b); err != nil {
			t.Errorf("EraseBlock(%d): %v", b, err)
		}
		if w, _ := c.Wear(b); w != 1 {
			t.Errorf("Wear(%d) = %d after one erase", b, w)
		}
	}
	if err := c.CorruptPage(far, nil); err != nil {
		t.Errorf("CorruptPage(%d, nil): %v", far, err)
	}
	// An interrupted erase of a never-written block has no page to tear.
	c.SetCrashPlan(&CrashPlan{Seed: 1, Op: CrashErase})
	if err := c.EraseBlock(g.Blocks - 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing erase: %v", err)
	}
	r := c.Reopen()
	if img, err := r.Page(g.PagesPerBlock); err != nil || string(img) != "low" {
		t.Errorf("survivor = %q, %v", img, err)
	}
	if w, _ := r.Wear(g.Blocks - 2); w != 1 {
		t.Errorf("interrupted erase not counted: wear %d", w)
	}
	// The cursor of a block past the survivor's table starts at zero.
	if err := r.WritePage(far, []byte("high")); err != nil {
		t.Fatalf("first write to a never-written block of a reopened chip: %v", err)
	}
	if err := r.WritePage(far+2, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("skipping a page of a fresh block: %v", err)
	}
	if n, _ := r.WrittenInBlock(g.Blocks - 1); n != 1 {
		t.Errorf("WrittenInBlock = %d, want 1", n)
	}
}
