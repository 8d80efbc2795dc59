package tenant

import (
	"errors"
	"testing"

	"pds/internal/flash"
	"pds/internal/logstore"
)

// powerCycle cuts the tenant chip's power, recovers it and reopens the
// tenant's store: its fingerprint and the blocks recovery found in use.
func powerCycle(t *testing.T, e *envelope) (fp string, inUse int) {
	t.Helper()
	chip := e.chip.Reopen()
	rec, err := logstore.Recover(chip, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	st, err := e.kind.Reopen(rec)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if fp, err = st.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if n := rec.Alloc.InUse() + rec.Alloc.FreeBlocks(); n != chip.Geometry().Blocks {
		t.Fatalf("recovered allocator accounts for %d of %d blocks", n, chip.Geometry().Blocks)
	}
	return fp, rec.Alloc.InUse()
}

// A power cut after a sync's commit record and before or inside the
// reorganization the next request's idle window runs recovers the
// acknowledged boundary and leaks no block: recovery finds in use exactly
// the blocks of the layout before the reorganization's switch record or
// of the one after it. Every crash point of every fault kind the engine's
// battery sweeps is cut, through the whole request that pays the debt.
func TestCrashAroundIdleReorganization(t *testing.T) {
	for _, c := range []Class{ClassKV, ClassSearch} {
		// The acknowledged boundary, and a clean power cycle before and
		// after the reorganization.
		_, e, _ := owingTenant(t, c)
		acked, err := e.st.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fp, pre := powerCycle(t, e)
		if fp != acked {
			t.Fatalf("%v: power cut right after the sync recovered %s, want the acknowledged %s", c, fp, acked)
		}
		_, e, _ = owingTenant(t, c)
		if err := e.st.Reorganize(); err != nil {
			t.Fatal(err)
		}
		fp, post := powerCycle(t, e)
		if fp != acked {
			t.Fatalf("%v: clean cycle after the reorganization recovered %s, want %s", c, fp, acked)
		}

		kind, _ := c.Kind()
		for _, op := range kind.CrashOps {
			crashes, inside := 0, 0
			for after := 0; ; after++ {
				h, e, at := owingTenant(t, c)
				e.chip.SetCrashPlan(&flash.CrashPlan{Seed: int64(after), Op: op, After: after})
				_, err := h.Do(Request{Tenant: "t", Class: c, AtNS: at + 50_000_000, Role: "owner", Purpose: "serve"})
				if err == nil {
					break
				}
				if !errors.Is(err, flash.ErrCrashed) {
					t.Fatalf("%v %v after %d: %v", c, op, after, err)
				}
				crashes++
				if e.owed {
					inside++
				}
				fp, inUse := powerCycle(t, e)
				if fp != acked {
					t.Fatalf("%v %v after %d: recovered %s, want the acknowledged %s", c, op, after, fp, acked)
				}
				if inUse != pre && inUse != post {
					t.Fatalf("%v %v after %d: recovery holds %d blocks, the layouts %d and %d", c, op, after, inUse, pre, post)
				}
			}
			if op != flash.CrashErase && inside == 0 {
				t.Errorf("%v %v: none of %d crash points fell inside the reorganization", c, op, crashes)
			}
			t.Logf("%v %v: %d crash points, %d inside the reorganization", c, op, crashes, inside)
		}
	}
}
