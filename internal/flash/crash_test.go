package flash

import (
	"bytes"
	"errors"
	"testing"
)

// Satellite regression: unlike InjectWriteFault's single-shot semantics, a
// fired crash plan is sticky — every operation class fails until Reopen.
func TestCrashPlanIsStickyUntilReopen(t *testing.T) {
	c := NewChip(SmallGeometry())
	c.SetCrashPlan(&CrashPlan{Seed: 1, Op: CrashWrite, After: 1})
	if err := c.WritePage(0, []byte("a")); err != nil {
		t.Fatalf("write before crash point: %v", err)
	}
	if err := c.WritePage(1, []byte("b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash write: got %v, want ErrCrashed", err)
	}
	// Retrying does NOT succeed (contrast with TestInjectWriteFaultSingleShot).
	if err := c.WritePage(1, []byte("b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("retried write: got %v, want ErrCrashed", err)
	}
	if _, err := c.Page(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: got %v, want ErrCrashed", err)
	}
	if _, err := c.ReadPage(0, make([]byte, 4)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ReadPage after crash: got %v, want ErrCrashed", err)
	}
	if _, err := c.Written(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Written after crash: got %v, want ErrCrashed", err)
	}
	if err := c.EraseBlock(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("erase after crash: got %v, want ErrCrashed", err)
	}
	if !c.Crashed() {
		t.Fatal("Crashed() = false after crash")
	}

	// Reopen yields a working chip with the survivors intact.
	r := c.Reopen()
	img, err := r.Page(0)
	if err != nil {
		t.Fatalf("read after reopen: %v", err)
	}
	if !bytes.Equal(img, []byte("a")) {
		t.Fatalf("survivor page = %q, want %q", img, "a")
	}
	// The programming cursor resumes past the survivor.
	if err := r.WritePage(1, []byte("c")); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
	// The old handle stays dead.
	if _, err := c.Page(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("old handle alive after Reopen: %v", err)
	}
}

// A clean-crash write (CrashWrite) must leave the failed page erased; a
// torn write (CrashTornWrite) leaves a strict prefix of the data, and both
// outcomes replay identically for equal seeds.
func TestCrashTornWriteDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		c := NewChip(SmallGeometry())
		c.SetCrashPlan(&CrashPlan{Seed: seed, Op: CrashTornWrite, After: 1})
		if err := c.WritePage(0, bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatalf("pre-crash write: %v", err)
		}
		data := []byte("hello torn world, this page will not make it in full")
		if err := c.WritePage(1, data); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn write: got %v, want ErrCrashed", err)
		}
		r := c.Reopen()
		img, err := r.Page(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(img) >= len(data) {
			t.Fatalf("torn page kept %d bytes of %d, want a strict prefix", len(img), len(data))
		}
		if !bytes.Equal(img, data[:len(img)]) {
			t.Fatalf("torn page is not a prefix of the written data")
		}
		// The torn page consumed its program slot: the block cursor moved on.
		if got, _ := r.WrittenInBlock(0); got != 2 {
			t.Fatalf("WrittenInBlock = %d, want 2", got)
		}
		return img
	}
	a1, a2 := run(42), run(42)
	if !bytes.Equal(a1, a2) {
		t.Fatal("same seed produced different torn pages")
	}
	b := run(43)
	if bytes.Equal(a1, b) && len(a1) > 0 {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

// An interrupted erase leaves each written page of the block erased,
// intact, or deterministically corrupted — and replays exactly.
func TestCrashEraseDeterministic(t *testing.T) {
	build := func(seed int64) *Chip {
		c := NewChip(SmallGeometry())
		g := c.Geometry()
		for i := 0; i < g.PagesPerBlock; i++ {
			if err := c.WritePage(i, bytes.Repeat([]byte{byte(i + 1)}, 32)); err != nil {
				t.Fatal(err)
			}
		}
		c.SetCrashPlan(&CrashPlan{Seed: seed, Op: CrashErase, After: 0})
		if err := c.EraseBlock(0); !errors.Is(err, ErrCrashed) {
			t.Fatalf("erase: got %v, want ErrCrashed", err)
		}
		return c
	}
	image := func(c *Chip) [][]byte {
		r := c.Reopen()
		g := r.Geometry()
		out := make([][]byte, g.PagesPerBlock)
		for i := range out {
			img, err := r.Page(i)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = img
		}
		return out
	}
	i1, i2 := image(build(7)), image(build(7))
	outcomes := map[string]int{}
	for p := range i1 {
		if !bytes.Equal(i1[p], i2[p]) {
			t.Fatalf("page %d differs across identical seeds", p)
		}
		orig := bytes.Repeat([]byte{byte(p + 1)}, 32)
		switch {
		case i1[p] == nil:
			outcomes["erased"]++
		case bytes.Equal(i1[p], orig):
			outcomes["intact"]++
		default:
			outcomes["corrupt"]++
		}
	}
	if len(outcomes) < 2 {
		t.Logf("erase outcomes not mixed at this seed: %v", outcomes)
	}
}

// Reopen recomputes the per-block cursor past holes left by an
// interrupted erase, so survivors can never be overwritten.
func TestReopenCursorSkipsHoles(t *testing.T) {
	c := NewChip(SmallGeometry())
	for i := 0; i < 4; i++ {
		if err := c.WritePage(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.SetCrashPlan(&CrashPlan{Seed: 3, Op: CrashErase, After: 0})
	_ = c.EraseBlock(0)
	r := c.Reopen()
	w, err := r.WrittenInBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if w > 0 {
		// The next legal write is exactly at offset w.
		if err := r.WritePage(w-1, []byte("x")); err == nil {
			t.Fatal("overwrote a consumed page slot")
		}
		if w < r.Geometry().PagesPerBlock {
			if err := r.WritePage(w, []byte("x")); err != nil {
				t.Fatalf("write at cursor: %v", err)
			}
		}
	}
	// Wear carried over: the interrupted erase counted.
	if got, _ := r.Wear(0); got != 1 {
		t.Fatalf("wear = %d, want 1", got)
	}
}

// A zero-length programmed page survives a power cycle as programmed: its
// cursor and its written flag agree.
func TestReopenKeepsZeroLengthPages(t *testing.T) {
	c := NewChip(SmallGeometry())
	if err := c.WritePage(0, nil); err != nil {
		t.Fatal(err)
	}
	r := c.Reopen()
	if w, err := r.Written(0); err != nil || !w {
		t.Fatalf("Written(0) after reopen = %v, %v; want true", w, err)
	}
	if err := r.WritePage(0, []byte("x")); !errors.Is(err, ErrOverwrite) {
		t.Errorf("rewrite of a programmed page = %v, want ErrOverwrite", err)
	}
	if err := r.WritePage(1, []byte("x")); err != nil {
		t.Errorf("write at the cursor: %v", err)
	}
}

// The crash countdown counts only successful operations of the armed kind.
func TestCrashPlanCountdownCountsSuccessesOnly(t *testing.T) {
	c := NewChip(SmallGeometry())
	c.SetCrashPlan(&CrashPlan{Seed: 1, Op: CrashWrite, After: 2})
	if err := c.WritePage(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// A failed (out-of-order) write does not advance the countdown.
	if err := c.WritePage(5, []byte("z")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("got %v, want ErrOutOfOrder", err)
	}
	if err := c.WritePage(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePage(2, []byte("c")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("3rd successful write: got %v, want ErrCrashed", err)
	}
}
