package flash

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrNoSpace is returned when every block is allocated.
var ErrNoSpace = errors.New("flash: no free blocks")

// Allocator hands out erase blocks of a chip at block granularity, the only
// allocation grain the tutorial's log-only framework permits (so that
// deallocation never triggers partial garbage collection).
//
// A freed block is not erased on the spot: it goes back to the free pool
// dirty, its pages still programmed, and is erased either by EraseDirty —
// reclamation as background work, in the chip's idle time — or by the
// Alloc that hands it out again. Either way its erase is paid once, before
// the block is reprogrammed, and recovery still finds it written. A block
// its owner keeps but will reprogram, like the journal's stale partner,
// owes its erase the same way (Owe), paid by EraseDirty or by the owner's
// CleanOwed.
type Allocator struct {
	mu    sync.Mutex
	chip  *Chip
	free  []int  // stack of free block ids, dirty ones included
	inUse []bool // per block
	// dirty is the stack of blocks that owe their erase, newest on top:
	// free ones in the order Alloc hands them out, and owed ones in use.
	dirty []int
	used  int // blocks in use
}

// NewAllocator creates an allocator owning all blocks of chip.
func NewAllocator(chip *Chip) *Allocator {
	return NewAllocatorWithUsed(chip, nil, nil)
}

// NewAllocatorWithUsed creates an allocator over a recovered chip in which
// the listed used blocks are already occupied by surviving structures.
// Every other block goes to the free pool, low ids handed out first, as in
// NewAllocator. The dirty blocks, distinct and not used, are free but
// still hold written pages: they are erased by EraseDirty, in the order
// Alloc hands them out, or by the Alloc that hands one out. The allocator
// keeps the dirty slice and sorts it in place.
func NewAllocatorWithUsed(chip *Chip, used, dirty []int) *Allocator {
	g := chip.Geometry()
	// High ids at the bottom of the stack: Alloc hands low ids out first.
	slices.Sort(dirty)
	slices.Reverse(dirty)
	a := &Allocator{
		chip:  chip,
		free:  make([]int, 0, g.Blocks),
		inUse: make([]bool, g.Blocks),
		dirty: dirty,
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

// clean erases block b if it owes its erase, with a.mu held. The search
// starts from the top of the dirty stack, where the block Alloc hands out
// next sits.
func (a *Allocator) clean(b int) error {
	for i := len(a.dirty) - 1; i >= 0; i-- {
		if a.dirty[i] == b {
			if err := a.chip.EraseBlock(b); err != nil {
				return err
			}
			a.dirty = append(a.dirty[:i], a.dirty[i+1:]...)
			return nil
		}
	}
	return nil
}

// Claim reserves a specific block, removing it from the free pool — used
// by structures with a fixed block address, like the journal area of the
// crash-consistency plane. A dirty block is erased first.
func (a *Allocator) Claim(b int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.held(b) {
		return fmt.Errorf("flash: claim of allocated block %d", b)
	}
	for i, f := range a.free {
		if f == b {
			if err := a.clean(b); err != nil {
				return err
			}
			a.free = append(a.free[:i], a.free[i+1:]...)
			a.take(b)
			return nil
		}
	}
	return fmt.Errorf("flash: claim of unknown block %d", b)
}

// Alloc reserves one block and returns its id: the most recently freed
// one, erased first if it is still dirty.
func (a *Allocator) Alloc() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) == 0 {
		return 0, ErrNoSpace
	}
	b := a.free[len(a.free)-1]
	if err := a.clean(b); err != nil {
		return 0, err
	}
	a.free = a.free[:len(a.free)-1]
	a.take(b)
	return b, nil
}

// Free returns block b to the free pool, dirty: its erase is owed, not
// paid. The chip drops the block's page images, since no reader may follow
// a freed block, but the pages stay programmed until the erase.
func (a *Allocator) Free(b int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.held(b) {
		return fmt.Errorf("flash: free of unallocated block %d", b)
	}
	if err := a.chip.dropImages(b); err != nil {
		return err
	}
	a.inUse[b] = false
	a.used--
	a.free = append(a.free, b)
	a.dirty = append(a.dirty, b)
	return nil
}

// Owe records that block b, in use and owing no erase yet, owes its
// erase: its owner keeps it but will reprogram it, and until then
// EraseDirty may erase it in the chip's idle time. The owner pays what is
// still owed with CleanOwed before it programs b again. Its pages stay
// readable until the erase.
func (a *Allocator) Owe(b int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.held(b) {
		return fmt.Errorf("flash: owed erase of unallocated block %d", b)
	}
	a.dirty = append(a.dirty, b)
	return nil
}

// CleanOwed erases block b if its erase is still owed: the on-demand half
// of Owe, which the owner calls before it programs b again.
func (a *Allocator) CleanOwed(b int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.clean(b)
}

// EraseDirty erases up to n blocks that owe their erase, newest first —
// the order Alloc hands free blocks out, so a short idle window erases
// exactly the blocks the next allocations take — and returns how many it
// erased. The blocks keep their places in the free pool, so the
// allocation order is the same whether or not their erase ran ahead.
func (a *Allocator) EraseDirty(n int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	done := 0
	for ; done < n && len(a.dirty) > 0; done++ {
		if err := a.chip.EraseBlock(a.dirty[len(a.dirty)-1]); err != nil {
			return done, err
		}
		a.dirty = a.dirty[:len(a.dirty)-1]
	}
	return done, nil
}

// Dirty returns how many blocks still owe their erase, free and owed ones.
func (a *Allocator) Dirty() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.dirty)
}

// FreeBlocks returns how many blocks remain unallocated, dirty ones
// included.
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
