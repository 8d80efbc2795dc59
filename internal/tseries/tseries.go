// Package tseries extends the log-only framework to time series — another
// of the tutorial's "extend the principles to other data models"
// challenges, and the natural model for the sensor-class devices Part II
// targets (meter readings, GPS traces, health telemetry).
//
// Points arrive in timestamp order and are packed into append-only segment
// pages; each flushed segment page gets a small summary record
// (minT, maxT, count, sum, min, max) appended to a summary log. A window
// aggregate scans the summary log, answers entirely from summaries for
// segments fully inside the window, and reads only the (at most two)
// boundary segments — the time-series analogue of the Bloom summary scan.
package tseries

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pds/internal/flash"
	"pds/internal/logstore"
)

// Errors returned by series operations.
var (
	ErrOutOfOrder = errors.New("tseries: timestamps must be non-decreasing")
	ErrBadWindow  = errors.New("tseries: window start after end")
)

// Point is one observation.
type Point struct {
	T int64 // timestamp (any monotonic unit)
	V int64 // value
}

const pointSize = 16

func encodePoint(p Point) []byte {
	var b [pointSize]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(p.T))
	binary.LittleEndian.PutUint64(b[8:16], uint64(p.V))
	return b[:]
}

func decodePoint(rec []byte) (Point, error) {
	if len(rec) != pointSize {
		return Point{}, fmt.Errorf("tseries: corrupt point (%d bytes)", len(rec))
	}
	return Point{
		T: int64(binary.LittleEndian.Uint64(rec[0:8])),
		V: int64(binary.LittleEndian.Uint64(rec[8:16])),
	}, nil
}

// Agg is a window aggregate.
type Agg struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// Avg returns the mean value (0 for an empty aggregate).
func (a Agg) Avg() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.Count)
}

// merge folds another aggregate in.
func (a *Agg) merge(o Agg) {
	if o.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = o
		return
	}
	a.Count += o.Count
	a.Sum += o.Sum
	if o.Min < a.Min {
		a.Min = o.Min
	}
	if o.Max > a.Max {
		a.Max = o.Max
	}
}

// add folds one value in.
func (a *Agg) add(v int64) {
	a.merge(Agg{Count: 1, Sum: v, Min: v, Max: v})
}

// segment summary record layout: minT | maxT | count | sum | min | max |
// page (all little-endian 64/32-bit).
type summary struct {
	minT, maxT int64
	agg        Agg
	page       int
}

func encodeSummary(s summary) []byte {
	out := make([]byte, 6*8+4)
	binary.LittleEndian.PutUint64(out[0:], uint64(s.minT))
	binary.LittleEndian.PutUint64(out[8:], uint64(s.maxT))
	binary.LittleEndian.PutUint64(out[16:], uint64(s.agg.Count))
	binary.LittleEndian.PutUint64(out[24:], uint64(s.agg.Sum))
	binary.LittleEndian.PutUint64(out[32:], uint64(s.agg.Min))
	binary.LittleEndian.PutUint64(out[40:], uint64(s.agg.Max))
	binary.LittleEndian.PutUint32(out[48:], uint32(s.page))
	return out
}

func decodeSummary(rec []byte) (summary, error) {
	if len(rec) != 6*8+4 {
		return summary{}, fmt.Errorf("tseries: corrupt summary (%d bytes)", len(rec))
	}
	return summary{
		minT: int64(binary.LittleEndian.Uint64(rec[0:])),
		maxT: int64(binary.LittleEndian.Uint64(rec[8:])),
		agg: Agg{
			Count: int64(binary.LittleEndian.Uint64(rec[16:])),
			Sum:   int64(binary.LittleEndian.Uint64(rec[24:])),
			Min:   int64(binary.LittleEndian.Uint64(rec[32:])),
			Max:   int64(binary.LittleEndian.Uint64(rec[40:])),
		},
		page: int(binary.LittleEndian.Uint32(rec[48:])),
	}, nil
}

// Series is an append-only time series on flash.
type Series struct {
	points *logstore.Log
	sums   *logstore.Log
	// Running summary of the page being filled.
	cur     summary
	curSet  bool
	lastT   int64
	hasLast bool
}

// New creates an empty series drawing blocks from alloc.
func New(alloc *flash.Allocator) *Series {
	s := &Series{
		points: logstore.NewLog(alloc),
		sums:   logstore.NewLog(alloc),
	}
	s.points.OnFlush(s.flushSummary)
	return s
}

func (s *Series) flushSummary(page int) error {
	if !s.curSet {
		return nil
	}
	s.cur.page = page
	if _, err := s.sums.Append(encodeSummary(s.cur)); err != nil {
		return err
	}
	s.cur = summary{}
	s.curSet = false
	return nil
}

// Pages returns the flash pages used.
func (s *Series) Pages() int { return s.points.Pages() + s.sums.Pages() }

// Append adds one point; timestamps must be non-decreasing.
func (s *Series) Append(p Point) error {
	if s.hasLast && p.T < s.lastT {
		return fmt.Errorf("%w: %d after %d", ErrOutOfOrder, p.T, s.lastT)
	}
	if _, err := s.points.Append(encodePoint(p)); err != nil {
		return err
	}
	if !s.curSet {
		s.cur = summary{minT: p.T, maxT: p.T}
		s.curSet = true
	}
	if p.T > s.cur.maxT {
		s.cur.maxT = p.T
	}
	s.cur.agg.add(p.V)
	s.lastT = p.T
	s.hasLast = true
	return nil
}

// Flush persists buffered points and their summary.
func (s *Series) Flush() error {
	if err := s.points.Flush(); err != nil {
		return err
	}
	return s.sums.Flush()
}

// Drop frees the series' flash blocks.
func (s *Series) Drop() error {
	if err := s.points.Drop(); err != nil {
		return err
	}
	return s.sums.Drop()
}

// WindowStats describes the work one window query performed.
type WindowStats struct {
	SummaryPages   int
	SegmentsInside int // answered from summaries alone
	SegmentsRead   int // boundary segments whose points were scanned
}

// Window aggregates the points with t0 <= T <= t1. Fully covered segments
// are answered from their summaries; only boundary segments are read.
func (s *Series) Window(t0, t1 int64) (Agg, WindowStats, error) {
	var out Agg
	var st WindowStats
	if t0 > t1 {
		return out, st, ErrBadWindow
	}
	// scan folds the points of page that fall inside the window.
	scan := func(page logstore.PageView) error {
		for {
			r, ok := page.Next()
			if !ok {
				return nil
			}
			p, err := decodePoint(r)
			if err != nil {
				return err
			}
			if p.T >= t0 && p.T <= t1 {
				out.add(p.V)
			}
		}
	}
	buf := s.points.PageBuf()
	defer logstore.PutPageBuf(buf)
	st.SummaryPages = s.sums.Pages()
	it := s.sums.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		sum, err := decodeSummary(rec)
		if err != nil {
			return out, st, err
		}
		if sum.maxT < t0 || sum.minT > t1 {
			continue
		}
		if sum.minT >= t0 && sum.maxT <= t1 {
			out.merge(sum.agg)
			st.SegmentsInside++
			continue
		}
		// Boundary segment: scan its points.
		page, err := s.points.ReadPage(sum.page, *buf)
		if err != nil {
			return out, st, err
		}
		st.SegmentsRead++
		if err := scan(page); err != nil {
			return out, st, err
		}
	}
	if err := it.Err(); err != nil {
		return out, st, err
	}
	// Buffered (unflushed) points are in RAM.
	if err := scan(s.points.Unflushed()); err != nil {
		return out, st, err
	}
	return out, st, nil
}

// ScanWindow is the baseline: a full scan of every point.
func (s *Series) ScanWindow(t0, t1 int64) (Agg, error) {
	var out Agg
	if t0 > t1 {
		return out, ErrBadWindow
	}
	it := s.points.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		p, err := decodePoint(rec)
		if err != nil {
			return out, err
		}
		if p.T >= t0 && p.T <= t1 {
			out.add(p.V)
		}
	}
	return out, it.Err()
}

// Downsample returns per-bucket aggregates for buckets of the given width
// covering [t0, t1), computed with one summary-log scan plus boundary
// reads per bucket.
func (s *Series) Downsample(t0, t1, width int64) ([]Agg, error) {
	if width <= 0 || t0 > t1 {
		return nil, ErrBadWindow
	}
	nb := (t1 - t0 + width - 1) / width
	if nb > 1<<20 {
		return nil, fmt.Errorf("tseries: %d buckets is unreasonable", nb)
	}
	out := make([]Agg, nb)
	for i := range out {
		lo := t0 + int64(i)*width
		hi := lo + width - 1
		if hi > t1-1 {
			hi = t1 - 1
		}
		agg, _, err := s.Window(lo, hi)
		if err != nil {
			return nil, err
		}
		out[i] = agg
	}
	return out, nil
}

// MinInt64 sentinel helpers for tests.
const (
	MinTime = math.MinInt64
	MaxTime = math.MaxInt64
)
