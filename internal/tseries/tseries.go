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

// segment summary layout: minT | maxT | count | sum | min | max (all
// little-endian 64-bit), after the page number the summary log puts first.
type summary struct {
	minT, maxT int64
	agg        Agg
}

func encodeSummary(dst []byte, s summary) []byte {
	for _, v := range [6]int64{s.minT, s.maxT, s.agg.Count, s.agg.Sum, s.agg.Min, s.agg.Max} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func decodeSummary(rec []byte) (summary, error) {
	if len(rec) != 6*8 {
		return summary{}, fmt.Errorf("tseries: corrupt summary (%d bytes)", len(rec))
	}
	at := func(i int) int64 { return int64(binary.LittleEndian.Uint64(rec[8*i:])) }
	return summary{
		minT: at(0), maxT: at(1),
		agg: Agg{Count: at(2), Sum: at(3), Min: at(4), Max: at(5)},
	}, nil
}

// summarize appends the summary of a segment page's points.
func summarize(dst []byte, page logstore.PageView) ([]byte, error) {
	var s summary
	for first := true; ; first = false {
		rec, ok := page.Next()
		if !ok {
			return encodeSummary(dst, s), nil
		}
		p, err := decodePoint(rec)
		if err != nil {
			return nil, err
		}
		if first {
			s.minT = p.T
		}
		s.maxT = p.T
		s.agg.add(p.V)
	}
}

// Series is an append-only time series on flash: a summarized log of
// points.
type Series struct {
	points  *logstore.Log
	lastT   int64
	hasLast bool
}

// New creates an empty series drawing blocks from alloc.
func New(alloc *flash.Allocator) *Series {
	return &Series{points: logstore.NewSummarized(alloc, summarize)}
}

// Pages returns the flash pages used.
func (s *Series) Pages() int { return s.points.Pages() + s.points.SummaryPages() }

// Append adds one point; timestamps must be non-decreasing.
func (s *Series) Append(p Point) error {
	if s.hasLast && p.T < s.lastT {
		return fmt.Errorf("%w: %d after %d", ErrOutOfOrder, p.T, s.lastT)
	}
	if _, err := s.points.Append(encodePoint(p)); err != nil {
		return err
	}
	s.lastT = p.T
	s.hasLast = true
	return nil
}

// Flush persists buffered points and their summary.
func (s *Series) Flush() error { return s.points.Flush() }

// Drop frees the series' flash blocks.
func (s *Series) Drop() error { return s.points.Drop() }

// WindowStats describes the work one window query performed.
type WindowStats struct {
	SummaryPages   int
	SegmentsInside int // answered from summaries alone
	SegmentsRead   int // boundary segments whose points were scanned
}

// aggregate folds the points with lo <= T <= hi into out, in buckets of
// width (0: one bucket), with one summary-log scan: a segment inside one
// bucket merges from its summary, any other segment that meets [lo, hi]
// is read once, and the buffered points are folded in last.
func (s *Series) aggregate(lo, hi, width int64, out []Agg) (WindowStats, error) {
	var st WindowStats
	// bucket returns the bucket of t, -1 outside [lo, hi].
	bucket := func(t int64) int64 {
		switch {
		case t < lo || t > hi:
			return -1
		case width == 0:
			return 0
		}
		// t-lo may exceed the int64 range; as uint64 it is exact.
		return int64((uint64(t) - uint64(lo)) / uint64(width))
	}
	fold := func(page logstore.PageView) error {
		for {
			r, ok := page.Next()
			if !ok {
				return nil
			}
			p, err := decodePoint(r)
			if err != nil {
				return err
			}
			if b := bucket(p.T); b >= 0 {
				out[b].add(p.V)
			}
		}
	}
	buf := s.points.PageBuf()
	defer logstore.PutPageBuf(buf)
	st.SummaryPages = s.points.SummaryPages()
	if err := s.points.Summaries(func(p int, rec []byte) error {
		sum, err := decodeSummary(rec)
		switch b := bucket(sum.minT); {
		case err != nil || sum.maxT < lo || sum.minT > hi:
			return err
		case b >= 0 && b == bucket(sum.maxT):
			out[b].merge(sum.agg)
			st.SegmentsInside++
			return nil
		}
		page, err := s.points.ReadPage(p, *buf)
		if err != nil {
			return err
		}
		st.SegmentsRead++
		return fold(page)
	}); err != nil {
		return st, err
	}
	return st, fold(s.points.Unflushed())
}

// Window aggregates the points with t0 <= T <= t1. Fully covered segments
// are answered from their summaries; only boundary segments are read.
func (s *Series) Window(t0, t1 int64) (Agg, WindowStats, error) {
	if t0 > t1 {
		return Agg{}, WindowStats{}, ErrBadWindow
	}
	var out [1]Agg
	st, err := s.aggregate(t0, t1, 0, out[:])
	return out[0], st, err
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
// covering [t0, t1), computed with one summary-log scan.
func (s *Series) Downsample(t0, t1, width int64) ([]Agg, error) {
	if width <= 0 || t0 > t1 {
		return nil, ErrBadWindow
	}
	// t1-t0 may exceed the int64 range; as uint64 it is exact.
	span := uint64(t1) - uint64(t0)
	nb := span / uint64(width)
	if span%uint64(width) != 0 {
		nb++
	}
	if nb > 1<<20 {
		return nil, fmt.Errorf("tseries: %d buckets is unreasonable", nb)
	}
	out := make([]Agg, nb)
	if nb > 0 {
		if _, err := s.aggregate(t0, t1-1, width, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
