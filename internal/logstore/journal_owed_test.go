package logstore

import (
	"errors"
	"fmt"
	"testing"

	"pds/internal/flash"
)

// commitApp commits a manifest whose application payload names seq.
func commitApp(j *Journal, seq int) error {
	return j.Commit(&Manifest{App: []byte(fmt.Sprintf("commit-%d", seq))})
}

// checkWinner fails unless the journal's newest record is still on flash
// where the journal resumes from: no erase took it.
func checkWinner(t *testing.T, chip *flash.Chip, j *Journal, when string) {
	t.Helper()
	img, err := chip.Page(j.block*chip.Geometry().PagesPerBlock + j.nextPage - 1)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if seq, _, ok := decodeRecord(img); !ok || seq != j.Seq() {
		t.Fatalf("%s: the winning record (seq %d, block %d) is gone from flash", when, j.Seq(), j.block)
	}
}

// The journal's stale partner block owes its erase. A power cut at any
// point around that erase — the ping-pong record landed with the erase
// still owed, the idle-time erase interrupted, the ping-pong record torn,
// or its write failed and idle time ran before the cut — recovers the
// newest committed manifest; the recovered allocator owes the stale
// partner's erase; and no later idle erase or ping-pong erases the block
// that holds the winning record.
func TestJournalOwedEraseCrash(t *testing.T) {
	ppb := flash.SmallGeometry().PagesPerBlock
	cases := []struct {
		name    string
		commits int // records committed before the cut: ppb fills block A
		// stale says the partner of the winning block may hold written
		// pages after the cut; then at least one seed must leave some.
		stale bool
		cut   func(t *testing.T, chip *flash.Chip, alloc *flash.Allocator, j *Journal, seed int64)
	}{
		{"record landed, erase owed", ppb + 1, true, func(t *testing.T, chip *flash.Chip, alloc *flash.Allocator, j *Journal, _ int64) {
			if alloc.Dirty() != 1 || chip.Stats().BlockErases != 0 {
				t.Fatalf("after the ping-pong: dirty=%d erases=%d, want 1 and 0", alloc.Dirty(), chip.Stats().BlockErases)
			}
			chip.Crash()
		}},
		{"idle erase interrupted", ppb + 1, true, func(t *testing.T, chip *flash.Chip, alloc *flash.Allocator, j *Journal, seed int64) {
			chip.SetCrashPlan(&flash.CrashPlan{Seed: seed, Op: flash.CrashErase})
			if _, err := alloc.EraseDirty(alloc.Dirty()); !errors.Is(err, flash.ErrCrashed) {
				t.Fatalf("idle erase: %v, want a crash", err)
			}
		}},
		{"ping-pong record torn", ppb, true, func(t *testing.T, chip *flash.Chip, alloc *flash.Allocator, j *Journal, seed int64) {
			chip.SetCrashPlan(&flash.CrashPlan{Seed: seed, Op: flash.CrashTornWrite})
			if err := commitApp(j, ppb+1); !errors.Is(err, flash.ErrCrashed) {
				t.Fatalf("ping-pong commit: %v, want a crash", err)
			}
		}},
		{"ping-pong record failed, then idle time", ppb, false, func(t *testing.T, chip *flash.Chip, alloc *flash.Allocator, j *Journal, _ int64) {
			chip.InjectWriteFault(0)
			if err := commitApp(j, ppb+1); !errors.Is(err, flash.ErrInjectedFault) {
				t.Fatalf("ping-pong commit: %v, want the injected fault", err)
			}
			if _, err := alloc.EraseDirty(alloc.Dirty()); err != nil {
				t.Fatal(err)
			}
			chip.Crash()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			staleSeen := false
			for seed := int64(0); seed < 8; seed++ {
				chip := testChip()
				alloc := flash.NewAllocator(chip)
				j, err := NewJournal(alloc)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= c.commits; i++ {
					if err := commitApp(j, i); err != nil {
						t.Fatal(err)
					}
				}
				c.cut(t, chip, alloc, j, seed)

				chip2 := chip.Reopen()
				rec, err := Recover(chip2, nil)
				if err != nil {
					t.Fatalf("seed %d: recover: %v", seed, err)
				}
				if rec.Manifest == nil || rec.Manifest.Seq != uint64(c.commits) || string(rec.App()) != fmt.Sprintf("commit-%d", c.commits) {
					t.Fatalf("seed %d: recovered %+v, want the newest commit %d", seed, rec.Manifest, c.commits)
				}
				partner := JournalBlockA + JournalBlockB - rec.Journal.block
				wc, err := chip2.WrittenInBlock(partner)
				if err != nil {
					t.Fatal(err)
				}
				owed := 0
				if wc > 0 {
					owed = 1
				}
				if rec.Alloc.Dirty() != owed {
					t.Fatalf("seed %d: partner holds %d pages, recovered allocator owes %d erases", seed, wc, rec.Alloc.Dirty())
				}
				staleSeen = staleSeen || wc > 0
				checkWinner(t, chip2, rec.Journal, "after recovery")

				// Two more rounds of the journal, idle time now and then
				// (the idle erase and the ping-pong's on-demand one both
				// pay the partner's erase).
				for i := c.commits + 1; i <= c.commits+2*ppb+2; i++ {
					if i%3 == 0 {
						if _, err := rec.Alloc.EraseDirty(rec.Alloc.Dirty()); err != nil {
							t.Fatal(err)
						}
						checkWinner(t, chip2, rec.Journal, fmt.Sprintf("idle time before commit %d", i))
					}
					if err := commitApp(rec.Journal, i); err != nil {
						t.Fatalf("seed %d: commit %d: %v", seed, i, err)
					}
					checkWinner(t, chip2, rec.Journal, fmt.Sprintf("commit %d", i))
				}
				last := c.commits + 2*ppb + 2
				rec2, err := Recover(chip2.Reopen(), nil)
				if err != nil || rec2.Manifest == nil || rec2.Manifest.Seq != uint64(last) {
					t.Fatalf("seed %d: second recovery %+v, %v; want commit %d", seed, rec2, err, last)
				}
			}
			if c.stale && !staleSeen {
				t.Error("no seed left the stale partner written: the owed erase after recovery went unexercised")
			}
		})
	}
}
