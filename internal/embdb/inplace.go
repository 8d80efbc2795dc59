package embdb

import (
	"bytes"
	"fmt"
	"sort"

	"pds/internal/flash"
)

// InPlaceIndex is the anti-pattern baseline of the flash experiments: a
// sorted array of (key, rowid) entries kept in place on flash, as a
// classical disk B-tree would. Every insertion lands in the middle of some
// page; since NAND forbids page rewrites, the device must read the whole
// erase block, erase it, and program it back — the random-write cost the
// tutorial's log-only framework exists to avoid. It is implemented only to
// be measured against.
type InPlaceIndex struct {
	alloc   *flash.Allocator
	blocks  []int // one entry-page per... pages used in order
	pages   int   // logical pages in use
	perPage int   // max entries per page
	entries int
}

// NewInPlaceIndex creates the baseline index.
func NewInPlaceIndex(alloc *flash.Allocator) *InPlaceIndex {
	g := alloc.Chip().Geometry()
	return &InPlaceIndex{
		alloc:   alloc,
		perPage: (g.PageSize - nodePageHeader) / (2 + 8 + 4), // conservative for 8-byte keys
	}
}

// physPage maps a logical page to flash.
func (x *InPlaceIndex) physPage(logical int) (int, error) {
	g := x.alloc.Chip().Geometry()
	bi := logical / g.PagesPerBlock
	if bi >= len(x.blocks) {
		return 0, fmt.Errorf("embdb: in-place logical page %d unallocated", logical)
	}
	return x.blocks[bi]*g.PagesPerBlock + logical%g.PagesPerBlock, nil
}

// readPage loads a logical page's entries.
func (x *InPlaceIndex) readPage(logical int) ([]nodeEntry, error) {
	phys, err := x.physPage(logical)
	if err != nil {
		return nil, err
	}
	img, err := x.alloc.Chip().Page(phys)
	if err != nil {
		return nil, err
	}
	if img == nil {
		return nil, nil
	}
	return decodeNodePage(img)
}

// rewritePage overwrites one logical page, paying the full
// read-erase-program cycle of its block. The rewrite is copy-on-write at
// block grain: the merged images are programmed into a fresh block before
// the superseded one is released, so a failed program leaves every prior
// entry readable (the half-programmed block goes back to the allocator).
// The cost is unchanged versus erasing in place — one block read, one
// block program, one erase — only the order differs.
func (x *InPlaceIndex) rewritePage(logical int, entries []nodeEntry) error {
	g := x.alloc.Chip().Geometry()
	chip := x.alloc.Chip()
	bi := logical / g.PagesPerBlock
	if bi > len(x.blocks) {
		return fmt.Errorf("embdb: in-place logical page %d skips a block", logical)
	}
	// Read every live page of the block being replaced (none for a new one).
	images := make([][]byte, g.PagesPerBlock)
	if bi < len(x.blocks) {
		base := x.blocks[bi] * g.PagesPerBlock
		for i := 0; i < g.PagesPerBlock; i++ {
			written, err := chip.Written(base + i)
			if err != nil {
				return err
			}
			if written {
				img, err := chip.Page(base + i)
				if err != nil {
					return err
				}
				images[i] = img
			}
		}
	}
	// Build the new page image.
	page := make([]byte, nodePageHeader, g.PageSize)
	for _, e := range entries {
		page = appendNodeEntry(page, e)
	}
	if len(page) > g.PageSize {
		return fmt.Errorf("embdb: in-place page overflow")
	}
	putU16(page[0:2], uint16(len(entries)))
	images[logical%g.PagesPerBlock] = page
	// Program into a fresh block — the expensive part. The old block is
	// untouched until every page has landed.
	nb, err := x.alloc.Alloc()
	if err != nil {
		return err
	}
	base := nb * g.PagesPerBlock
	for i := 0; i < g.PagesPerBlock; i++ {
		if images[i] == nil {
			break // NAND sequential rule: stop at first unwritten page
		}
		if err := chip.WritePage(base+i, images[i]); err != nil {
			// Prior values stay readable in the old block; discard the
			// half-programmed copy (best effort — the chip may be dead).
			_ = x.alloc.Free(nb)
			return err
		}
	}
	if bi < len(x.blocks) {
		if err := x.alloc.Free(x.blocks[bi]); err != nil {
			return err
		}
		x.blocks[bi] = nb
	} else {
		x.blocks = append(x.blocks, nb)
	}
	return nil
}

func putU16(dst []byte, v uint16) {
	dst[0] = byte(v)
	dst[1] = byte(v >> 8)
}

// Insert adds (key, rid) keeping global sorted order, splitting pages as
// they fill. Every insert rewrites at least one block.
func (x *InPlaceIndex) Insert(key []byte, rid RowID) error {
	e := nodeEntry{key: append([]byte(nil), key...), ptr: uint32(rid)}
	if x.pages == 0 {
		if err := x.rewritePage(0, []nodeEntry{e}); err != nil {
			return err
		}
		x.pages = 1
		x.entries = 1
		return nil
	}
	// Find the target page by scanning last keys (binary search over
	// pages, reading one page per probe).
	lo, hi := 0, x.pages-1
	target := x.pages - 1
	for lo <= hi {
		mid := (lo + hi) / 2
		entries, err := x.readPage(mid)
		if err != nil {
			return err
		}
		if len(entries) == 0 || bytes.Compare(entries[len(entries)-1].key, key) >= 0 {
			target = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	entries, err := x.readPage(target)
	if err != nil {
		return err
	}
	pos := sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].key, key) >= 0
	})
	entries = append(entries, nodeEntry{})
	copy(entries[pos+1:], entries[pos:])
	entries[pos] = e
	if len(entries) <= x.perPage {
		if err := x.rewritePage(target, entries); err != nil {
			return err
		}
		x.entries++
		return nil
	}
	// Split: shift all following pages right by one (the classic in-place
	// array behaviour: worst-case cascading rewrites).
	for p := x.pages - 1; p > target; p-- {
		moved, err := x.readPage(p)
		if err != nil {
			return err
		}
		if err := x.rewritePage(p+1, moved); err != nil {
			return err
		}
	}
	mid := len(entries) / 2
	if err := x.rewritePage(target, entries[:mid]); err != nil {
		return err
	}
	if err := x.rewritePage(target+1, entries[mid:]); err != nil {
		return err
	}
	x.pages++
	x.entries++
	return nil
}
