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
// A freed block is not erased on the spot: it goes back to the free pool
// dirty, its pages still programmed, and is erased either by EraseDirty —
// reclamation as background work, in the chip's idle time — or by the
// Alloc that hands it out again. Either way its erase is paid once, before
// the block is reprogrammed, and recovery still finds it written.
type Allocator struct {
	mu    sync.Mutex
	chip  *Chip
	free  []int  // stack of free block ids, dirty ones included
	inUse []bool // per block
	dirty []int  // free blocks not yet erased, oldest free first
	used  int    // blocks in use
}

// NewAllocator creates an allocator owning all blocks of chip.
func NewAllocator(chip *Chip) *Allocator {
	return NewAllocatorWithUsed(chip, nil, nil)
}

// NewAllocatorWithUsed creates an allocator over a recovered chip in which
// the listed used blocks are already occupied by surviving structures.
// Every other block goes to the free pool, low ids handed out first, as in
// NewAllocator. The dirty blocks, distinct and not used, are free but
// still hold written pages: they are erased, in the order listed, by
// EraseDirty or by the Alloc that hands one out. The allocator keeps the
// dirty slice.
func NewAllocatorWithUsed(chip *Chip, used, dirty []int) *Allocator {
	g := chip.Geometry()
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

// clean erases free block b if it is dirty, with a.mu held. The search
// starts from the most recently freed block, which is the one Alloc hands
// out.
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

// EraseDirty erases up to n dirty blocks, oldest free first, and returns
// how many it erased. The blocks keep their places in the free pool, so
// the allocation order is the same whether or not their erase ran ahead.
func (a *Allocator) EraseDirty(n int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	done := 0
	var err error
	for ; done < n && done < len(a.dirty); done++ {
		if err = a.chip.EraseBlock(a.dirty[done]); err != nil {
			break
		}
	}
	a.dirty = append(a.dirty[:0], a.dirty[done:]...)
	return done, err
}

// Dirty returns how many free blocks still owe their erase.
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
