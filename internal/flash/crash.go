package flash

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the power-fail plane of the chip: a deterministic,
// seeded crash schedule in the spirit of netsim's FaultPlan. A CrashPlan
// kills the chip at the k-th page write or block erase — optionally leaving
// a torn (partially programmed) last page, or a block whose erase was
// interrupted mid-flight — and from then on *every* operation fails with
// ErrCrashed until the survivor is reconstructed with Reopen. Crash
// decisions are pure functions of (seed, operation content), so a given
// plan replays the exact same surviving flash image on every run.

// ErrCrashed is returned by every chip operation after a crash plan fired
// (or Crash was called) until the chip is reconstructed with Reopen. It is
// sticky by design: a real device that lost power does not serve retries.
var ErrCrashed = errors.New("flash: chip crashed (power fail)")

// Metric families of the recovery path. The chip itself does not emit
// them — the log-replay recovery in logstore does, so that the cost of
// coming back from a crash is metered separately from regular I/O.
const (
	MetricRecoveryRuns            = "flash_recovery_runs_total"
	MetricRecoveryPageReads       = "flash_recovery_page_reads_total"
	MetricRecoveryCommitRecords   = "flash_recovery_commit_records_total"
	MetricRecoveryTornPages       = "flash_recovery_torn_pages_total"
	MetricRecoveryBlocksReclaimed = "flash_recovery_blocks_reclaimed_total"
	MetricRecoveryTailCopyPages   = "flash_recovery_tail_copy_pages_total"
)

// CrashOp selects which operation class a CrashPlan interrupts.
type CrashOp int

const (
	// CrashWrite fails the (After+1)-th page write cleanly: the page is
	// not programmed at all (power failed before the program pulse).
	CrashWrite CrashOp = iota
	// CrashTornWrite fails the (After+1)-th page write mid-programming:
	// a seed-determined prefix of the data lands on flash, the rest of
	// the page stays erased — the torn-page case recovery must detect.
	CrashTornWrite
	// CrashErase interrupts the (After+1)-th block erase: each written
	// page of the block independently ends up erased, intact, or
	// corrupted, decided by the seed.
	CrashErase
)

func (op CrashOp) String() string {
	switch op {
	case CrashWrite:
		return "write"
	case CrashTornWrite:
		return "torn-write"
	case CrashErase:
		return "erase"
	}
	return fmt.Sprintf("CrashOp(%d)", int(op))
}

// CrashPlan schedules one deterministic power failure: the next operation
// of kind Op after After successful operations of that kind crashes the
// chip (After=0 crashes the very next one). Seed drives the content-hashed
// torn-page and interrupted-erase outcomes, so equal plans over equal
// workloads leave bit-identical surviving images.
type CrashPlan struct {
	Seed  int64
	Op    CrashOp
	After int
}

// hashUniform maps (seed, fields) to a uniform [0,1) — the same
// content-hash construction as netsim.HashUniform, duplicated here so the
// flash package stays dependency-free below logstore.
func hashUniform(seed int64, fields ...[]byte) float64 {
	h := sha256.New()
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(seed))
	h.Write(b8[:])
	for _, f := range fields {
		binary.LittleEndian.PutUint64(b8[:], uint64(len(f)))
		h.Write(b8[:])
		h.Write(f)
	}
	sum := h.Sum(nil)
	return float64(binary.LittleEndian.Uint64(sum[:8])>>11) / float64(1<<53)
}

// hashBytes derives n deterministic garbage bytes for a corrupted page.
func hashBytes(seed int64, n int, fields ...[]byte) []byte {
	out := make([]byte, 0, n)
	var ctr [8]byte
	for i := 0; len(out) < n; i++ {
		h := sha256.New()
		var b8 [8]byte
		binary.LittleEndian.PutUint64(b8[:], uint64(seed))
		h.Write(b8[:])
		binary.LittleEndian.PutUint64(ctr[:], uint64(i))
		h.Write(ctr[:])
		for _, f := range fields {
			binary.LittleEndian.PutUint64(b8[:], uint64(len(f)))
			h.Write(b8[:])
			h.Write(f)
		}
		out = append(out, h.Sum(nil)...)
	}
	return out[:n]
}

// SetCrashPlan arms (or, with nil, disarms) the chip's crash plan. The
// plan's countdown starts from the moment it is armed.
func (c *Chip) SetCrashPlan(p *CrashPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p == nil {
		c.plan = nil
		c.planCount = 0
		return
	}
	cp := *p
	c.plan = &cp
	c.planCount = 0
}

// Crash kills the chip immediately: every subsequent operation returns
// ErrCrashed until Reopen.
func (c *Chip) Crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = true
}

// Crashed reports whether the chip is dead.
func (c *Chip) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// crashWrite decides, with c.mu held, whether this otherwise-valid write
// must crash the chip. It returns a non-nil error when it did. n is the
// physical page, b its block.
func (c *Chip) crashWrite(n, b int, data []byte) error {
	if c.plan == nil || (c.plan.Op != CrashWrite && c.plan.Op != CrashTornWrite) {
		return nil
	}
	if c.planCount < c.plan.After {
		c.planCount++
		return nil
	}
	c.crashed = true
	if c.plan.Op == CrashTornWrite && len(data) > 0 {
		// A seed-determined strict prefix of the page lands on flash.
		var pn [8]byte
		binary.LittleEndian.PutUint64(pn[:], uint64(n))
		keep := int(hashUniform(c.plan.Seed, []byte("torn"), pn[:], data) * float64(len(data)))
		torn := make([]byte, keep)
		copy(torn, data[:keep])
		c.ensure(b)
		c.data[n] = torn
		c.next[b]++
		c.stats.PageWrites++
		if c.obsWrites != nil {
			c.obsWrites.Inc()
		}
	}
	return fmt.Errorf("%w: during write of page %d", ErrCrashed, n)
}

// crashErase decides, with c.mu held, whether this erase must crash the
// chip, leaving block b partially erased.
func (c *Chip) crashErase(b int) error {
	if c.plan == nil || c.plan.Op != CrashErase {
		return nil
	}
	if c.planCount < c.plan.After {
		c.planCount++
		return nil
	}
	c.crashed = true
	start := b * c.geo.PagesPerBlock
	var bb, pb [8]byte
	binary.LittleEndian.PutUint64(bb[:], uint64(b))
	for i := 0; i < c.geo.PagesPerBlock; i++ {
		old := c.at(start + i)
		if old == nil {
			continue
		}
		binary.LittleEndian.PutUint64(pb[:], uint64(i))
		u := hashUniform(c.plan.Seed, []byte("erase"), bb[:], pb[:], old)
		switch {
		case u < 0.4: // page made it to the erased state
			c.data[start+i] = nil
		case u < 0.7: // erase pulse never reached this page
			// intact
		default: // caught mid-erase: deterministic garbage
			c.data[start+i] = hashBytes(c.plan.Seed, len(old), []byte("corrupt"), bb[:], pb[:], old)
		}
	}
	c.wear[b]++
	c.stats.BlockErases++
	if c.obsErases != nil {
		c.obsErases.Inc()
	}
	return fmt.Errorf("%w: during erase of block %d", ErrCrashed, b)
}

// Reopen reconstructs a fresh, powered-up chip from the surviving pages:
// the per-block programming cursors are recomputed past the last written
// page (so no survivor can be overwritten), wear counters carry over, and
// operation stats start from zero so recovery I/O is measured cleanly.
// The old handle stays dead. Reopen works on a healthy chip too, modeling
// a clean power cycle.
func (c *Chip) Reopen() *Chip {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &Chip{
		geo:          c.geo,
		data:         make([][]byte, len(c.data)),
		next:         make([]int, c.geo.Blocks),
		wear:         append([]int64(nil), c.wear...),
		writeFaultIn: -1,
		eraseFaultIn: -1,
	}
	for i, d := range c.data {
		if d != nil {
			n.data[i] = append([]byte(nil), d...)
			n.next[i/c.geo.PagesPerBlock] = i%c.geo.PagesPerBlock + 1
		}
	}
	c.crashed = true
	return n
}

// CorruptPage overwrites the raw content of page n with data, bypassing
// every NAND discipline — the media-corruption hook the recovery fuzzers
// use to model bit rot on surviving pages. nil reverts the page to the
// erased state. It performs no I/O accounting.
func (c *Chip) CorruptPage(n int, data []byte) error {
	if err := c.checkPage(n); err != nil {
		return err
	}
	if len(data) > c.geo.PageSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), c.geo.PageSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if data == nil {
		if n < len(c.data) {
			c.data[n] = nil
		}
		return nil
	}
	c.ensure(c.BlockOf(n))
	c.data[n] = append([]byte(nil), data...)
	return nil
}

// WrittenInBlock returns 1 + the offset of the last programmed page of
// block b, i.e. the number of page slots consumed since the last erase
// (holes included). Like Written, it models controller metadata and does
// not count as an I/O.
func (c *Chip) WrittenInBlock(b int) (int, error) {
	if b < 0 || b >= c.geo.Blocks {
		return 0, fmt.Errorf("%w: block %d of %d", ErrBounds, b, c.geo.Blocks)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	for i := c.geo.PagesPerBlock - 1; i >= 0; i-- {
		if c.at(b*c.geo.PagesPerBlock+i) != nil {
			return i + 1, nil
		}
	}
	return 0, nil
}
