package flash

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoSpace is returned when every block is allocated.
var ErrNoSpace = errors.New("flash: no free blocks")

// Allocator hands out erase blocks of a chip at block granularity, the only
// allocation grain the tutorial's log-only framework permits (so that
// deallocation never triggers partial garbage collection).
//
// Freed blocks are erased immediately, which is when the erase cost is paid.
type Allocator struct {
	mu    sync.Mutex
	chip  *Chip
	free  []int  // stack of free block ids
	inUse []bool // per block
	used  int    // blocks in use
}

// NewAllocator creates an allocator owning all blocks of chip.
func NewAllocator(chip *Chip) *Allocator {
	g := chip.Geometry()
	a := &Allocator{
		chip:  chip,
		free:  make([]int, 0, g.Blocks),
		inUse: make([]bool, g.Blocks),
	}
	// Hand out low block ids first so tests and traces are deterministic.
	for b := g.Blocks - 1; b >= 0; b-- {
		a.free = append(a.free, b)
	}
	return a
}

// NewAllocatorWithUsed creates an allocator over a recovered chip in which
// the listed blocks are already occupied by surviving structures. Every
// other block goes to the free pool (low ids handed out first, as in
// NewAllocator); the caller is responsible for having reclaimed — erased —
// any unowned block that still held written pages.
func NewAllocatorWithUsed(chip *Chip, used []int) *Allocator {
	g := chip.Geometry()
	a := &Allocator{
		chip:  chip,
		free:  make([]int, 0, g.Blocks),
		inUse: make([]bool, g.Blocks),
	}
	for _, b := range used {
		a.take(b)
	}
	for b := g.Blocks - 1; b >= 0; b-- {
		if !a.inUse[b] {
			a.free = append(a.free, b)
		}
	}
	return a
}

// held reports whether b is a block of the chip that is in use.
func (a *Allocator) held(b int) bool { return b >= 0 && b < len(a.inUse) && a.inUse[b] }

// take marks b in use.
func (a *Allocator) take(b int) {
	if !a.inUse[b] {
		a.inUse[b] = true
		a.used++
	}
}

// Claim reserves a specific block, removing it from the free pool — used
// by structures with a fixed block address, like the journal area of the
// crash-consistency plane.
func (a *Allocator) Claim(b int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.held(b) {
		return fmt.Errorf("flash: claim of allocated block %d", b)
	}
	for i, f := range a.free {
		if f == b {
			a.free = append(a.free[:i], a.free[i+1:]...)
			a.take(b)
			return nil
		}
	}
	return fmt.Errorf("flash: claim of unknown block %d", b)
}

// Alloc reserves one block and returns its id.
func (a *Allocator) Alloc() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) == 0 {
		return 0, ErrNoSpace
	}
	b := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.take(b)
	return b, nil
}

// Free erases block b and returns it to the free pool.
func (a *Allocator) Free(b int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.held(b) {
		return fmt.Errorf("flash: free of unallocated block %d", b)
	}
	if err := a.chip.EraseBlock(b); err != nil {
		return err
	}
	a.inUse[b] = false
	a.used--
	a.free = append(a.free, b)
	return nil
}

// FreeBlocks returns how many blocks remain unallocated.
func (a *Allocator) FreeBlocks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}

// InUse returns how many blocks are currently allocated.
func (a *Allocator) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Chip returns the underlying chip.
func (a *Allocator) Chip() *Chip { return a.chip }
