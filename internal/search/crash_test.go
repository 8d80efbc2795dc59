package search

import (
	"errors"
	"fmt"
	"testing"

	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/mcu"
)

// The search crash battery now runs generically from internal/durable
// (the "search" Kind); this file keeps the directed mid-Reorganize crash
// tests of the reorganization contract: the old chains stay authoritative
// until the switch record lands, then the compact index takes over — a
// crash anywhere in between recovers one of the two, never a mixture.

const (
	crashBuckets = 4
	crashVocab   = 10
	crashArena   = 8192
)

func crashTerm(i int) string { return fmt.Sprintf("term-%02d", i%crashVocab) }

// TestReorganizeCrashMidCompaction sweeps a crash across every page write
// of one Reorganize, and every erase of it and of the retirement of the
// blocks it superseded. Whatever the crash point, the recovered engine must
// answer queries exactly as before the reorganization started — from the
// old chains if the crash hit before the switch record, from the new
// compact index after — and must accept further documents.
func TestReorganizeCrashMidCompaction(t *testing.T) {
	build := func() (*flash.Allocator, *Engine, error) {
		alloc := flash.NewAllocator(flash.NewChip(flash.SmallGeometry()))
		e, err := OpenDurable(alloc, mcu.NewArena(crashArena), crashBuckets)
		if err != nil {
			return nil, nil, err
		}
		for op := 0; op < 24; op++ {
			if _, err := e.AddDocument(map[string]int{
				crashTerm(op):       op%4 + 1,
				crashTerm(op*3 + 1): 1,
			}); err != nil {
				return nil, nil, err
			}
		}
		return alloc, e, e.Sync()
	}

	// Reference answers from the committed pre-reorganization state.
	_, ref, err := build()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]Result)
	for i := 0; i < crashVocab; i++ {
		res, err := ref.Search([]string{crashTerm(i)}, 64)
		if err != nil {
			t.Fatal(err)
		}
		want[crashTerm(i)] = res
	}

	sawOld, sawNew := false, false
	// Write faults cover everything up to and including the switch record;
	// erase faults also land in the post-switch cleanup (the rebuild's last
	// writes are the compact pages and the commit — after that the blocks
	// Reorganize superseded only owe their erases, which are retired here
	// as a host retires them in the chip's idle time).
	for _, op := range []flash.CrashOp{flash.CrashWrite, flash.CrashErase} {
		for after := 0; ; after++ {
			alloc, e, err := build()
			if err != nil {
				t.Fatal(err)
			}
			chip := alloc.Chip()
			chip.SetCrashPlan(&flash.CrashPlan{Seed: int64(after), Op: op, After: after})
			rerr := e.Reorganize(2, 4)
			if rerr == nil {
				_, rerr = alloc.EraseDirty(alloc.Dirty())
			}
			if rerr == nil {
				break // crash point past the whole reorganization: sweep done
			}
			if !errors.Is(rerr, flash.ErrCrashed) {
				t.Fatalf("%v/after=%d: Reorganize = %v, want ErrCrashed", op, after, rerr)
			}
			rec, err := logstore.Recover(chip.Reopen(), nil)
			if err != nil {
				t.Fatalf("%v/after=%d: recover: %v", op, after, err)
			}
			e2, err := Reopen(rec, mcu.NewArena(crashArena), crashBuckets)
			if err != nil {
				t.Fatalf("%v/after=%d: reopen: %v", op, after, err)
			}
			if e2.CompactPages() > 0 {
				sawNew = true
			} else {
				sawOld = true
			}
			for term, res := range want {
				got, err := e2.Search([]string{term}, 64)
				if err != nil {
					t.Fatalf("%v/after=%d: search %q: %v", op, after, term, err)
				}
				if len(got) != len(res) {
					t.Fatalf("%v/after=%d: %q returned %d docs, want %d (compact pages %d)",
						op, after, term, len(got), len(res), e2.CompactPages())
				}
				for i := range got {
					if got[i].Doc != res[i].Doc {
						t.Fatalf("%v/after=%d: %q result %d = doc %d, want %d", op, after, term, i, got[i].Doc, res[i].Doc)
					}
				}
			}
			// The recovered engine keeps working across a full cycle.
			if _, err := e2.AddDocument(map[string]int{"fresh-term": 2}); err != nil {
				t.Fatalf("%v/after=%d: add after recovery: %v", op, after, err)
			}
			if err := e2.Sync(); err != nil {
				t.Fatalf("%v/after=%d: sync after recovery: %v", op, after, err)
			}
			if res, err := e2.Search([]string{"fresh-term"}, 4); err != nil || len(res) != 1 {
				t.Fatalf("%v/after=%d: fresh-term = %v, %v", op, after, res, err)
			}
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("sweep did not cover both sides of the switch record (old=%v new=%v)", sawOld, sawNew)
	}
}
