// Package sptemp extends the log-only framework to spatio-temporal data —
// the last data model on the tutorial's "extend the principles" list, and
// the one behind its embedded-search citations (MAX, Snoogle: searching
// the physical world from constrained devices).
//
// A Track stores timestamped positions in append-only segment pages; each
// flushed page gets a summary record (time range + bounding box). A
// spatio-temporal query ("what was near the clinic last Tuesday?") scans
// the small summary log and reads only the pages whose time range AND
// bounding box intersect the query — the same summary-scan discipline as
// the Bloom and min/max summaries, adapted to geometry.
package sptemp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pds/internal/flash"
	"pds/internal/logstore"
)

// Errors returned by track operations.
var (
	ErrOutOfOrder = errors.New("sptemp: timestamps must be non-decreasing")
	ErrBadQuery   = errors.New("sptemp: malformed query window or region")
)

// Fix is one position fix. Coordinates are integer micro-degrees (or any
// planar integer grid).
type Fix struct {
	T    int64
	X, Y int64
}

const fixSize = 24

func encodeFix(p Fix) []byte {
	var b [fixSize]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(p.T))
	binary.LittleEndian.PutUint64(b[8:16], uint64(p.X))
	binary.LittleEndian.PutUint64(b[16:24], uint64(p.Y))
	return b[:]
}

func decodeFix(rec []byte) (Fix, error) {
	if len(rec) != fixSize {
		return Fix{}, fmt.Errorf("sptemp: corrupt fix (%d bytes)", len(rec))
	}
	return Fix{
		T: int64(binary.LittleEndian.Uint64(rec[0:8])),
		X: int64(binary.LittleEndian.Uint64(rec[8:16])),
		Y: int64(binary.LittleEndian.Uint64(rec[16:24])),
	}, nil
}

// Region is an axis-aligned rectangle (inclusive bounds).
type Region struct {
	MinX, MinY, MaxX, MaxY int64
}

// Contains reports whether the point lies in the region.
func (r Region) Contains(x, y int64) bool {
	return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY
}

// Intersects reports whether two regions overlap.
func (r Region) Intersects(o Region) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// expand grows the region to include (x, y).
func (r Region) expand(x, y int64) Region {
	if x < r.MinX {
		r.MinX = x
	}
	if x > r.MaxX {
		r.MaxX = x
	}
	if y < r.MinY {
		r.MinY = y
	}
	if y > r.MaxY {
		r.MaxY = y
	}
	return r
}

// segment summary: minT | maxT | bbox | count, after the page number the
// summary log puts first.
type segSummary struct {
	minT, maxT int64
	bbox       Region
	count      int64
}

func encodeSegSummary(dst []byte, s segSummary) []byte {
	for _, v := range [7]int64{s.minT, s.maxT, s.bbox.MinX, s.bbox.MinY, s.bbox.MaxX, s.bbox.MaxY, s.count} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func decodeSegSummary(rec []byte) (segSummary, error) {
	if len(rec) != 8*7 {
		return segSummary{}, fmt.Errorf("sptemp: corrupt summary (%d bytes)", len(rec))
	}
	at := func(i int) int64 { return int64(binary.LittleEndian.Uint64(rec[8*i:])) }
	return segSummary{
		minT: at(0), maxT: at(1),
		bbox:  Region{MinX: at(2), MinY: at(3), MaxX: at(4), MaxY: at(5)},
		count: at(6),
	}, nil
}

// summarize appends the summary of a segment page's fixes.
func summarize(dst []byte, page logstore.PageView) ([]byte, error) {
	var s segSummary
	for {
		rec, ok := page.Next()
		if !ok {
			return encodeSegSummary(dst, s), nil
		}
		p, err := decodeFix(rec)
		if err != nil {
			return nil, err
		}
		if s.count == 0 {
			s.minT, s.bbox = p.T, Region{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		}
		s.maxT = p.T
		s.bbox = s.bbox.expand(p.X, p.Y)
		s.count++
	}
}

// Track is one device's append-only spatio-temporal log: a summarized log
// of fixes.
type Track struct {
	fixes *logstore.Log
	lastT int64
	hasT  bool
}

// New creates an empty track drawing blocks from alloc.
func New(alloc *flash.Allocator) *Track {
	return &Track{fixes: logstore.NewSummarized(alloc, summarize)}
}

// Pages returns the flash pages in use.
func (t *Track) Pages() int { return t.fixes.Pages() + t.fixes.SummaryPages() }

// Append records one fix; timestamps must be non-decreasing.
func (t *Track) Append(p Fix) error {
	if t.hasT && p.T < t.lastT {
		return fmt.Errorf("%w: %d after %d", ErrOutOfOrder, p.T, t.lastT)
	}
	if _, err := t.fixes.Append(encodeFix(p)); err != nil {
		return err
	}
	t.lastT = p.T
	t.hasT = true
	return nil
}

// Flush persists buffered fixes and their summary.
func (t *Track) Flush() error { return t.fixes.Flush() }

// Drop frees the track's flash blocks.
func (t *Track) Drop() error { return t.fixes.Drop() }

// QueryStats describes the pruning a query achieved.
type QueryStats struct {
	SummaryPages   int
	SegmentsPruned int // rejected by time range or bbox, never read
	SegmentsRead   int
}

// Query returns the fixes with t0 <= T <= t1 inside the region, in time
// order, reading only segments whose summaries intersect the query.
func (t *Track) Query(t0, t1 int64, reg Region) ([]Fix, QueryStats, error) {
	var st QueryStats
	if t0 > t1 || reg.MinX > reg.MaxX || reg.MinY > reg.MaxY {
		return nil, st, ErrBadQuery
	}
	var out []Fix
	st.SummaryPages = t.fixes.SummaryPages()
	scanPage := func(page logstore.PageView) error {
		for {
			r, ok := page.Next()
			if !ok {
				return nil
			}
			p, err := decodeFix(r)
			if err != nil {
				return err
			}
			if p.T >= t0 && p.T <= t1 && reg.Contains(p.X, p.Y) {
				out = append(out, p)
			}
		}
	}
	buf := t.fixes.PageBuf()
	defer logstore.PutPageBuf(buf)
	if err := t.fixes.Summaries(func(p int, rec []byte) error {
		sum, err := decodeSegSummary(rec)
		switch {
		case err != nil:
			return err
		case sum.maxT < t0 || sum.minT > t1 || !sum.bbox.Intersects(reg):
			st.SegmentsPruned++
			return nil
		}
		page, err := t.fixes.ReadPage(p, *buf)
		if err != nil {
			return err
		}
		st.SegmentsRead++
		return scanPage(page)
	}); err != nil {
		return nil, st, err
	}
	if err := scanPage(t.fixes.Unflushed()); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// ScanQuery is the baseline: every fix is read and filtered.
func (t *Track) ScanQuery(t0, t1 int64, reg Region) ([]Fix, error) {
	if t0 > t1 || reg.MinX > reg.MaxX || reg.MinY > reg.MaxY {
		return nil, ErrBadQuery
	}
	var out []Fix
	it := t.fixes.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		p, err := decodeFix(rec)
		if err != nil {
			return nil, err
		}
		if p.T >= t0 && p.T <= t1 && reg.Contains(p.X, p.Y) {
			out = append(out, p)
		}
	}
	return out, it.Err()
}
