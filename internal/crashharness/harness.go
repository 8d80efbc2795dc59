// Package crashharness drives the power-fail property battery of DESIGN
// §11 (the storage twin of gquery's protocol battery): run a
// deterministic workload against a chip armed with a CrashPlan, let the
// plan kill the chip at one exact operation, recover with
// logstore.Recover, and require the reopened store to equal a committed
// prefix of the workload — never a torn or reordered state.
//
// Prefix semantics. A workload is a sequence of operations punctuated by
// Syncs (durability points). The clean baseline run records a canonical
// fingerprint of the store after every Sync; a crash run must recover to
// the fingerprint of some boundary in the admissible window
// [last acknowledged Sync, last attempted Sync] — the upper end because a
// commit record can land even though the Sync that wrote it then died
// before returning. After every acknowledged Sync the run pays the
// reorganization the boundary owes and then erases the blocks the store
// freed, as a host does in the chip's idle time, so the sweeps also cut
// power inside every rebuild, on both sides of its switch record, and
// between a Free and its erase.
package crashharness

import (
	"errors"
	"fmt"

	"pds/internal/durable"
	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/obs"
)

// Baseline runs w's canonical workload — Ops operations, a Sync every
// SyncEvery, a Reorganize at every boundary w owes, counted over the run
// — on a clean flash.SmallGeometry chip and returns the fingerprint at
// every sync boundary: index 0 is the freshly opened (empty) store, index
// k the state after the k-th Sync. The workload always ends on a
// boundary.
func Baseline(w durable.Kind) ([]string, error) {
	chip := flash.NewChip(flash.SmallGeometry())
	st, err := w.Open(flash.NewAllocator(chip))
	if err != nil {
		return nil, err
	}
	fp, err := st.Fingerprint()
	if err != nil {
		return nil, err
	}
	fps := []string{fp}
	sync := func() error {
		if err := st.Sync(); err != nil {
			return err
		}
		if w.Owes(len(fps)) {
			if err := st.Reorganize(); err != nil {
				return err
			}
		}
		fp, err := st.Fingerprint()
		if err != nil {
			return err
		}
		fps = append(fps, fp)
		return nil
	}
	for i := 0; i < w.Ops; i++ {
		if err := st.Apply(i); err != nil {
			return nil, fmt.Errorf("baseline op %d: %w", i, err)
		}
		if (i+1)%w.SyncEvery == 0 {
			if err := sync(); err != nil {
				return nil, fmt.Errorf("baseline sync after op %d: %w", i, err)
			}
		}
	}
	if w.Ops%w.SyncEvery != 0 {
		if err := sync(); err != nil {
			return nil, fmt.Errorf("baseline final sync: %w", err)
		}
	}
	// Close must release volatile state only; the frozen footprint of a
	// store that ran a whole workload cannot be empty.
	pages := st.Pages()
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("baseline close: %w", err)
	}
	if got := st.Pages(); got != pages || pages == 0 {
		return nil, fmt.Errorf("baseline footprint %d pages live, %d after close", pages, got)
	}
	return fps, nil
}

// Result describes one crash run.
type Result struct {
	Plan    flash.CrashPlan
	Crashed bool // false: the plan never fired (crash point past the workload)
	// Boundary is the baseline sync boundary the recovered store matched.
	Boundary int
	// Acked and Attempted delimit the admissible window the run observed.
	Acked, Attempted int
	// Recovery is the recovery-plane accounting (also mirrored into obs).
	Recovery logstore.RecoveryStats
	// RecoveryIO is the total chip I/O spent between Reopen and the store
	// being servable again (scan + adoption + store rebuild; the unowned
	// blocks recovery reclaims are handed to the allocator dirty).
	RecoveryIO flash.Stats
	// FootprintPages is the recovered store's flash page footprint — the
	// quota currency a multi-tenant host meters per tenant.
	FootprintPages int
}

// CrashRun executes w's workload under plan against the baseline
// fingerprints and verifies prefix consistency. Any violation — recovery
// failure, a fingerprint outside the admissible window, missing metering —
// returns an error.
func CrashRun(w durable.Kind, plan flash.CrashPlan, baseline []string) (Result, error) {
	res := Result{Plan: plan}
	chip := flash.NewChip(flash.SmallGeometry())
	alloc := flash.NewAllocator(chip)
	st, err := w.Open(alloc)
	if err != nil {
		return res, err
	}
	chip.SetCrashPlan(&plan)

	acked, attempted := 0, 0
	var crashErr error
	run := func() error {
		boundary := 0
		sync := func() error {
			attempted = boundary + 1
			if err := st.Sync(); err != nil {
				return err
			}
			boundary++
			acked = boundary
			if w.Owes(boundary) {
				if err := st.Reorganize(); err != nil {
					return err
				}
			}
			_, err := alloc.EraseDirty(alloc.Dirty())
			return err
		}
		for i := 0; i < w.Ops; i++ {
			if err := st.Apply(i); err != nil {
				return err
			}
			if (i+1)%w.SyncEvery == 0 {
				if err := sync(); err != nil {
					return err
				}
			}
		}
		if w.Ops%w.SyncEvery != 0 {
			return sync()
		}
		return nil
	}
	if err := run(); err != nil {
		if !errors.Is(err, flash.ErrCrashed) {
			return res, fmt.Errorf("%s/%v: non-crash failure: %w", w.Name, plan.Op, err)
		}
		crashErr = err
	}
	res.Crashed = crashErr != nil
	res.Acked, res.Attempted = acked, attempted
	if !res.Crashed {
		// Crash point beyond the workload; still verify a clean power
		// cycle recovers the final boundary.
		res.Acked, res.Attempted = len(baseline)-1, len(baseline)-1
		acked, attempted = res.Acked, res.Attempted
	}

	// Power-cycle and recover.
	reg := obs.NewRegistry()
	chip2 := chip.Reopen()
	rec, err := logstore.Recover(chip2, reg)
	if err != nil {
		return res, fmt.Errorf("%s/%v/after=%d: recover: %w", w.Name, plan.Op, plan.After, err)
	}
	st2, err := w.Reopen(rec)
	if err != nil {
		return res, fmt.Errorf("%s/%v/after=%d: reopen: %w", w.Name, plan.Op, plan.After, err)
	}
	res.Recovery = rec.Stats
	res.RecoveryIO = chip2.Stats()
	res.FootprintPages = st2.Pages()
	fp, err := st2.Fingerprint()
	if err != nil {
		return res, fmt.Errorf("%s/%v/after=%d: fingerprint: %w", w.Name, plan.Op, plan.After, err)
	}
	// Closing both incarnations must succeed at every crash point: the
	// crashed store's Close touches no flash (the chip is dead), the
	// recovered one's releases volatile state only.
	if err := st.Close(); err != nil {
		return res, fmt.Errorf("%s/%v/after=%d: close crashed store: %w", w.Name, plan.Op, plan.After, err)
	}
	defer st2.Close()

	// The recovered state must be a committed prefix inside the window.
	if attempted < acked || attempted >= len(baseline) {
		return res, fmt.Errorf("%s/%v/after=%d: bad window [%d,%d] of %d", w.Name, plan.Op, plan.After, acked, attempted, len(baseline))
	}
	res.Boundary = -1
	for k := acked; k <= attempted; k++ {
		if fp == baseline[k] {
			res.Boundary = k
			break
		}
	}
	if res.Boundary < 0 {
		return res, fmt.Errorf("%s/%v/after=%d: recovered state matches no committed boundary in [%d,%d] (crash=%v)",
			w.Name, plan.Op, plan.After, acked, attempted, crashErr)
	}
	// Recovery must have been metered.
	if got := reg.CounterValue(flash.MetricRecoveryRuns); got != 1 {
		return res, fmt.Errorf("%s/%v/after=%d: flash_recovery_runs_total = %d, want 1", w.Name, plan.Op, plan.After, got)
	}
	if res.Boundary > 0 && reg.CounterValue(flash.MetricRecoveryPageReads) == 0 {
		return res, fmt.Errorf("%s/%v/after=%d: recovery read no pages yet recovered boundary %d", w.Name, plan.Op, plan.After, res.Boundary)
	}
	return res, nil
}

// SweepStats aggregates one fault-kind sweep.
type SweepStats struct {
	Op      flash.CrashOp
	Runs    int // crash points exercised (including the final no-crash run)
	Crashes int
	// MaxReads/MaxIO track the most expensive recovery observed.
	MaxRecovery logstore.RecoveryStats
	MaxIO       flash.Stats
}

// Sweep walks crash points 0, stride, 2×stride, … for one fault kind
// until the plan no longer fires, verifying every run. seed varies per
// crash point so torn/interrupted outcomes differ across the sweep while
// each individual run stays exactly replayable.
func Sweep(w durable.Kind, op flash.CrashOp, seed int64, stride int, baseline []string) (SweepStats, error) {
	st := SweepStats{Op: op}
	if stride < 1 {
		stride = 1
	}
	for after := 0; ; after += stride {
		plan := flash.CrashPlan{Seed: seed + int64(after), Op: op, After: after}
		res, err := CrashRun(w, plan, baseline)
		if err != nil {
			return st, err
		}
		st.Runs++
		if res.Crashed {
			st.Crashes++
		}
		if res.Recovery.PageReads > st.MaxRecovery.PageReads {
			st.MaxRecovery = res.Recovery
		}
		if res.RecoveryIO.PageReads > st.MaxIO.PageReads {
			st.MaxIO = res.RecoveryIO
		}
		if !res.Crashed {
			return st, nil
		}
	}
}
