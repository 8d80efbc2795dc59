// Package flash simulates a raw NAND flash chip with the constraints that
// shape the data-management techniques of Part II of the tutorial:
//
//   - writes happen at page granularity and a page cannot be rewritten
//     before its whole block is erased (erase-before-write);
//   - inside a block, pages must be programmed in increasing order
//     (the sequential-programming rule of NAND devices);
//   - erase happens at block granularity only.
//
// The chip meters every page read, page write and block erase so that the
// benchmark harness can report I/O costs exactly as the paper does, and it
// exposes a nominal time cost model with typical NAND latencies.
//
// Violating a constraint is an error, never silent corruption: the
// structures built on top (logs, summaries, reorganized trees) are correct
// precisely because they avoid random writes by construction, and the
// simulator is how that property is checked.
package flash

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pds/internal/obs"
)

// Metric families a chip emits on an attached observer — the paper's
// Part II cost model, one counter per NAND operation class.
const (
	MetricPageReads   = "flash_page_reads_total"
	MetricPageWrites  = "flash_page_writes_total"
	MetricBlockErases = "flash_block_erases_total"
	// Wear/GC health (the ROADMAP wear-leveling item lands against this
	// baseline): a spread histogram fed at erase time with the erased
	// block's new wear count, plus gauges the hosting plane refreshes at
	// telemetry-sample time from WearSummary.
	MetricWearSpread    = "flash_wear"
	MetricWearMax       = "flash_wear_max"
	MetricWearMeanMilli = "flash_wear_mean_milli"
)

// WearBounds is the bucket layout for the wear-spread histogram:
// doubling erase-count bounds up to the ~100k cycles where SLC NAND
// blocks die. Each erase observes the block's new count, so the
// histogram shows how erase activity distributes across wear levels —
// a flat spread means leveling works, a spike means hot blocks.
func WearBounds() []int64 {
	return []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536, 131072}
}

// Geometry describes the physical layout of a chip.
type Geometry struct {
	PageSize      int // bytes per page
	PagesPerBlock int // pages per erase block
	Blocks        int // number of erase blocks
}

// SmallGeometry is a reduced layout convenient for tests.
func SmallGeometry() Geometry {
	return Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 64}
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.PageSize <= 0 || g.PagesPerBlock <= 0 || g.Blocks <= 0 {
		return fmt.Errorf("flash: invalid geometry %+v", g)
	}
	return nil
}

// TotalPages returns the number of addressable pages.
func (g Geometry) TotalPages() int { return g.PagesPerBlock * g.Blocks }

// TotalBytes returns the raw capacity of the chip.
func (g Geometry) TotalBytes() int64 {
	return int64(g.PageSize) * int64(g.TotalPages())
}

// CostModel gives nominal NAND latencies used to convert I/O counts into a
// simulated elapsed time. Values are typical SLC NAND figures.
type CostModel struct {
	ReadPage   time.Duration
	WritePage  time.Duration
	EraseBlock time.Duration
}

// DefaultCostModel returns typical SLC NAND latencies.
func DefaultCostModel() CostModel {
	return CostModel{
		ReadPage:   25 * time.Microsecond,
		WritePage:  250 * time.Microsecond,
		EraseBlock: 1500 * time.Microsecond,
	}
}

// Stats counts chip operations since the last reset.
type Stats struct {
	PageReads   int64
	PageWrites  int64
	BlockErases int64
}

// Add returns the element-wise sum of two stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		PageReads:   s.PageReads + o.PageReads,
		PageWrites:  s.PageWrites + o.PageWrites,
		BlockErases: s.BlockErases + o.BlockErases,
	}
}

// Sub returns the element-wise difference s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		PageReads:   s.PageReads - o.PageReads,
		PageWrites:  s.PageWrites - o.PageWrites,
		BlockErases: s.BlockErases - o.BlockErases,
	}
}

// Cost converts the counters into a simulated elapsed time under m.
func (s Stats) Cost(m CostModel) time.Duration {
	return time.Duration(s.PageReads)*m.ReadPage +
		time.Duration(s.PageWrites)*m.WritePage +
		time.Duration(s.BlockErases)*m.EraseBlock
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d erases=%d", s.PageReads, s.PageWrites, s.BlockErases)
}

// Errors returned by chip operations.
var (
	ErrBounds     = errors.New("flash: address out of bounds")
	ErrOverwrite  = errors.New("flash: page already written since last erase")
	ErrOutOfOrder = errors.New("flash: pages in a block must be written in increasing order")
	ErrTooLarge   = errors.New("flash: data larger than page size")
	// ErrInjectedFault is returned by operations hit by InjectWriteFault /
	// InjectEraseFault — the failure-injection hooks tests use to model
	// power loss and media errors.
	ErrInjectedFault = errors.New("flash: injected fault")
)

// Chip is a simulated NAND flash device. It is safe for concurrent use.
type Chip struct {
	mu  sync.Mutex
	geo Geometry
	// data holds the page images; nil means erased. The table covers only
	// the blocks up to the highest one ever programmed (see at, ensure):
	// a fleet of mostly-empty tenant chips must not pin a slice header
	// per addressable page.
	data  [][]byte
	next  []int // per block: next programmable page index within block
	stats Stats
	wear  []int64 // per block erase count
	// Fault injection: countdown of successful operations remaining before
	// one operation fails (-1 = disarmed).
	writeFaultIn int
	eraseFaultIn int
	// Power-fail plane (crash.go): an armed crash plan, the count of
	// successful operations of the plan's kind since arming, and the
	// sticky dead flag set when the plan fires (or Crash is called).
	plan      *CrashPlan
	planCount int
	crashed   bool

	// Observer counters, resolved once at SetObserver; all nil when no
	// registry is attached.
	obsReads  *obs.Counter
	obsWrites *obs.Counter
	obsErases *obs.Counter
	obsWear   *obs.Histogram
}

// NewChip allocates a chip with the given geometry. It panics if the
// geometry is invalid, because a bad geometry is a programming error.
func NewChip(g Geometry) *Chip {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return &Chip{
		geo:          g,
		next:         make([]int, g.Blocks),
		wear:         make([]int64, g.Blocks),
		writeFaultIn: -1,
		eraseFaultIn: -1,
	}
}

// at returns page n's image (nil if erased), with c.mu held. Pages past
// the materialised table were never programmed.
func (c *Chip) at(n int) []byte {
	if n < len(c.data) {
		return c.data[n]
	}
	return nil
}

// ensure extends the page table, with c.mu held, to cover block b.
func (c *Chip) ensure(b int) {
	if end := (b + 1) * c.geo.PagesPerBlock; end > len(c.data) {
		c.data = append(c.data, make([][]byte, end-len(c.data))...)
	}
}

// InjectWriteFault arms a single-shot fault: the write after `after` more
// successful page writes fails with ErrInjectedFault (after=0 fails the
// very next write). Used by tests to model power loss mid-operation.
func (c *Chip) InjectWriteFault(after int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeFaultIn = after
}

// InjectEraseFault arms a single-shot erase fault, analogous to
// InjectWriteFault.
func (c *Chip) InjectEraseFault(after int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eraseFaultIn = after
}

// Geometry returns the chip layout.
func (c *Chip) Geometry() Geometry { return c.geo }

// SetObserver attaches (or, with nil, detaches) a metrics registry; every
// subsequent page read/write and block erase is mirrored into it.
func (c *Chip) SetObserver(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.obsReads, c.obsWrites, c.obsErases, c.obsWear = nil, nil, nil, nil
		return
	}
	c.obsReads = reg.Counter(MetricPageReads)
	c.obsWrites = reg.Counter(MetricPageWrites)
	c.obsErases = reg.Counter(MetricBlockErases)
	c.obsWear = reg.Histogram(MetricWearSpread, WearBounds())
}

// Stats returns a snapshot of the operation counters.
func (c *Chip) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the operation counters.
func (c *Chip) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// BlockOf returns the erase block containing page n.
func (c *Chip) BlockOf(n int) int { return n / c.geo.PagesPerBlock }

// pageIndexInBlock returns n's offset within its block.
func (c *Chip) pageIndexInBlock(n int) int { return n % c.geo.PagesPerBlock }

func (c *Chip) checkPage(n int) error {
	if n < 0 || n >= c.geo.TotalPages() {
		return fmt.Errorf("%w: page %d of %d", ErrBounds, n, c.geo.TotalPages())
	}
	return nil
}

// WritePage programs page n with data. data may be shorter than the page
// size (the remainder reads back as zero bytes) but never longer. The
// sequential-programming and erase-before-write rules are enforced.
func (c *Chip) WritePage(n int, data []byte) error {
	if err := c.checkPage(n); err != nil {
		return err
	}
	if len(data) > c.geo.PageSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), c.geo.PageSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("%w: write of page %d", ErrCrashed, n)
	}
	if c.at(n) != nil {
		return fmt.Errorf("%w: page %d", ErrOverwrite, n)
	}
	b := c.BlockOf(n)
	if idx := c.pageIndexInBlock(n); idx != c.next[b] {
		return fmt.Errorf("%w: block %d expects page offset %d, got %d", ErrOutOfOrder, b, c.next[b], idx)
	}
	if err := c.crashWrite(n, b, data); err != nil {
		return err
	}
	if c.writeFaultIn == 0 {
		c.writeFaultIn = -1
		return fmt.Errorf("%w: write of page %d", ErrInjectedFault, n)
	}
	if c.writeFaultIn > 0 {
		c.writeFaultIn--
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	c.ensure(b)
	c.data[n] = buf
	c.next[b]++
	c.stats.PageWrites++
	if c.obsWrites != nil {
		c.obsWrites.Inc()
	}
	return nil
}

// ReadPage copies page n into dst and returns the number of bytes copied.
// Reading an erased (never written) page yields zero bytes copied; reading
// is always legal within bounds, as on a real device.
func (c *Chip) ReadPage(n int, dst []byte) (int, error) {
	if err := c.checkPage(n); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, fmt.Errorf("%w: read of page %d", ErrCrashed, n)
	}
	c.stats.PageReads++
	if c.obsReads != nil {
		c.obsReads.Inc()
	}
	return copy(dst, c.at(n)), nil
}

// Page returns a fresh copy of page n's content (nil if erased).
func (c *Chip) Page(n int) ([]byte, error) {
	if err := c.checkPage(n); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, fmt.Errorf("%w: read of page %d", ErrCrashed, n)
	}
	c.stats.PageReads++
	if c.obsReads != nil {
		c.obsReads.Inc()
	}
	img := c.at(n)
	if img == nil {
		return nil, nil
	}
	buf := make([]byte, len(img))
	copy(buf, img)
	return buf, nil
}

// Written reports whether page n has been programmed since its last erase.
// It does not count as an I/O (it models controller metadata).
func (c *Chip) Written(n int) (bool, error) {
	if err := c.checkPage(n); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return false, fmt.Errorf("%w: query of page %d", ErrCrashed, n)
	}
	return c.at(n) != nil, nil
}

// EraseBlock erases block b, making all its pages programmable again.
func (c *Chip) EraseBlock(b int) error {
	if b < 0 || b >= c.geo.Blocks {
		return fmt.Errorf("%w: block %d of %d", ErrBounds, b, c.geo.Blocks)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("%w: erase of block %d", ErrCrashed, b)
	}
	if err := c.crashErase(b); err != nil {
		return err
	}
	if c.eraseFaultIn == 0 {
		c.eraseFaultIn = -1
		return fmt.Errorf("%w: erase of block %d", ErrInjectedFault, b)
	}
	if c.eraseFaultIn > 0 {
		c.eraseFaultIn--
	}
	if start := b * c.geo.PagesPerBlock; start < len(c.data) {
		clear(c.data[start : start+c.geo.PagesPerBlock])
	}
	c.next[b] = 0
	c.wear[b]++
	c.stats.BlockErases++
	if c.obsErases != nil {
		c.obsErases.Inc()
	}
	if c.obsWear != nil {
		c.obsWear.Observe(c.wear[b])
	}
	return nil
}

// Wear returns the erase count of block b (a wear-leveling observable).
func (c *Chip) Wear(b int) (int64, error) {
	if b < 0 || b >= c.geo.Blocks {
		return 0, fmt.Errorf("%w: block %d of %d", ErrBounds, b, c.geo.Blocks)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wear[b], nil
}

// WearStats is the chip-level wear summary: the hottest block's erase
// count, the total across all blocks, and the block count (so callers
// aggregating many chips can compute a fleet mean exactly).
type WearStats struct {
	Max    int64
	Total  int64
	Blocks int
}

// Add returns the element-wise aggregate of two summaries.
func (w WearStats) Add(o WearStats) WearStats {
	if o.Max > w.Max {
		w.Max = o.Max
	}
	w.Total += o.Total
	w.Blocks += o.Blocks
	return w
}

// MeanMilli returns the mean erase count ×1000, kept integral so gauges
// derived from it stay deterministic.
func (w WearStats) MeanMilli() int64 {
	if w.Blocks == 0 {
		return 0
	}
	return w.Total * 1000 / int64(w.Blocks)
}

// WearSummary scans the per-block erase counters into a WearStats. One
// pass under the chip mutex — cheap enough for telemetry-sample
// boundaries, too hot for per-request paths.
func (c *Chip) WearSummary() WearStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := WearStats{Blocks: c.geo.Blocks}
	for _, n := range c.wear {
		w.Total += n
		if n > w.Max {
			w.Max = n
		}
	}
	return w
}
