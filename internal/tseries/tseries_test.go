package tseries

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pds/internal/flash"
	"pds/internal/logstore"
)

func testSeries() *Series {
	return New(flash.NewAllocator(flash.NewChip(flash.Geometry{
		PageSize: 512, PagesPerBlock: 16, Blocks: 4096,
	})))
}

func TestAppendWindow(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	for i := int64(0); i < 1000; i++ {
		if err := s.Append(Point{T: i, V: i * 2}); err != nil {
			t.Fatal(err)
		}
	}
	agg, _, err := s.Window(100, 199)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 100 {
		t.Errorf("count = %d", agg.Count)
	}
	wantSum := int64(0)
	for i := int64(100); i < 200; i++ {
		wantSum += i * 2
	}
	if agg.Sum != wantSum || agg.Min != 200 || agg.Max != 398 {
		t.Errorf("agg = %+v", agg)
	}
	if agg.Avg() != float64(wantSum)/100 {
		t.Errorf("avg = %f", agg.Avg())
	}
}

func TestWindowMatchesScan(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	rng := rand.New(rand.NewSource(1))
	tcur := int64(0)
	for i := 0; i < 5000; i++ {
		tcur += rng.Int63n(3)
		if err := s.Append(Point{T: tcur, V: rng.Int63n(1000) - 500}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	for trial := 0; trial < 50; trial++ {
		a := rng.Int63n(tcur + 1)
		b := a + rng.Int63n(tcur-a+1)
		fast, _, err := s.Window(a, b)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := s.ScanWindow(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Fatalf("window [%d,%d]: fast %+v vs scan %+v", a, b, fast, slow)
		}
	}
}

func TestWindowUsesSummaries(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	for i := int64(0); i < 20000; i++ {
		s.Append(Point{T: i, V: 1})
	}
	s.Flush()
	chip := s.points.Chip()
	chip.ResetStats()
	_, st, err := s.Window(5000, 15000)
	if err != nil {
		t.Fatal(err)
	}
	fastIO := chip.Stats().PageReads
	if st.SegmentsRead > 2 {
		t.Errorf("boundary segments read = %d, want <= 2", st.SegmentsRead)
	}
	if st.SegmentsInside == 0 {
		t.Error("no segment answered from summary")
	}
	chip.ResetStats()
	if _, err := s.ScanWindow(5000, 15000); err != nil {
		t.Fatal(err)
	}
	scanIO := chip.Stats().PageReads
	if fastIO*3 > scanIO {
		t.Errorf("summary window %d IOs vs scan %d; want >=3x saving", fastIO, scanIO)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	s.Append(Point{T: 10, V: 1})
	if err := s.Append(Point{T: 9, V: 1}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order err = %v", err)
	}
	// Equal timestamps are fine.
	if err := s.Append(Point{T: 10, V: 2}); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestBadWindow(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	if _, _, err := s.Window(5, 4); !errors.Is(err, ErrBadWindow) {
		t.Errorf("inverted window err = %v", err)
	}
	if _, err := s.ScanWindow(5, 4); !errors.Is(err, ErrBadWindow) {
		t.Errorf("inverted scan window err = %v", err)
	}
	if _, err := s.Downsample(0, 10, 0); !errors.Is(err, ErrBadWindow) {
		t.Errorf("zero width err = %v", err)
	}
}

func TestEmptySeries(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	agg, _, err := s.Window(0, 100)
	if err != nil || agg.Count != 0 {
		t.Errorf("empty window = %+v, %v", agg, err)
	}
}

func TestBufferedPointsVisible(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	s.Append(Point{T: 1, V: 7})
	// No flush.
	agg, _, err := s.Window(0, 10)
	if err != nil || agg.Count != 1 || agg.Sum != 7 {
		t.Errorf("buffered window = %+v, %v", agg, err)
	}
}

func TestDownsample(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	for i := int64(0); i < 100; i++ {
		s.Append(Point{T: i, V: 1})
	}
	buckets, err := s.Downsample(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	for i, b := range buckets {
		if b.Count != 10 || b.Sum != 10 {
			t.Errorf("bucket %d = %+v", i, b)
		}
	}
	// Ragged end.
	buckets, err = s.Downsample(0, 95, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 10 || buckets[9].Count != 5 {
		t.Errorf("ragged buckets = %d, last = %+v", len(buckets), buckets[len(buckets)-1])
	}
}

// A window spanning the whole int64 range neither overflows the bucket
// count nor the bucket index: each bucket equals the full scan of its
// range, and a span needing more than 1<<20 buckets is still refused.
func TestDownsampleFullRange(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	const n = 400
	start := uint64(1) << 63 // math.MinInt64 as uint64
	for i := uint64(0); i <= n; i++ {
		// Evenly from MinInt64 up, and the last one at MaxInt64.
		p := Point{T: int64(start + i*(math.MaxUint64/n)), V: int64(i)}
		if i == n {
			p.T = math.MaxInt64
		}
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const width = 1 << 62
	buckets, err := s.Downsample(math.MinInt64, math.MaxInt64, width)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 4 {
		t.Fatalf("%d buckets, want 4", len(buckets))
	}
	total := int64(0)
	for i, b := range buckets {
		lo := int64(start + uint64(i)*width)
		hi := min(int64(uint64(lo)+width-1), math.MaxInt64-1)
		scan, err := s.ScanWindow(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if b != scan {
			t.Errorf("bucket %d [%d, %d] = %+v, the scan %+v", i, lo, hi, b, scan)
		}
		total += b.Count
	}
	if total != n { // every point but the one at MaxInt64, which [t0, t1) excludes
		t.Errorf("the buckets count %d points, want %d", total, n)
	}
	if _, err := s.Downsample(math.MinInt64, math.MaxInt64, 1<<43); err == nil {
		t.Error("2^21 buckets accepted")
	}
}

// windowDownsample is Downsample as one Window per bucket, each checked
// against the full scan: the oracle.
func windowDownsample(s *Series, t0, t1, width int64) ([]Agg, error) {
	out := make([]Agg, (t1-t0+width-1)/width)
	for i := range out {
		lo := t0 + int64(i)*width
		hi := min(lo+width-1, t1-1)
		agg, _, err := s.Window(lo, hi)
		if err != nil {
			return nil, err
		}
		if scan, err := s.ScanWindow(lo, hi); err != nil || scan != agg {
			return nil, fmt.Errorf("window [%d, %d] = %+v, the scan %+v, %v", lo, hi, agg, scan, err)
		}
		out[i] = agg
	}
	return out, nil
}

// On random series, Downsample equals one Window per bucket, and it reads
// the summary pages once plus each flushed segment that meets [t0, t1)
// without lying inside one bucket, once.
func TestDownsampleOneSummaryPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		s := testSeries()
		tcur := rng.Int63n(100) - 50
		for i := rng.Intn(3000); i > 0; i-- {
			tcur += rng.Int63n(4)
			if err := s.Append(Point{T: tcur, V: rng.Int63n(2000) - 1000}); err != nil {
				t.Fatal(err)
			}
		}
		t0 := rng.Int63n(tcur+100) - 100
		t1 := t0 + rng.Int63n(tcur-t0+200)
		width := 1 + rng.Int63n(200)
		want, err := windowDownsample(s, t0, t1, width)
		if err != nil {
			t.Fatal(err)
		}
		// The segments a bucket edge, t0 or t1 cuts, from their points.
		buf := s.points.PageBuf()
		cut := 0
		for p := 0; p < s.points.Pages(); p++ {
			page, err := s.points.ReadPage(p, *buf)
			if err != nil {
				t.Fatal(err)
			}
			first, _ := page.Next()
			last := first
			for r, ok := page.Next(); ok; r, ok = page.Next() {
				last = r
			}
			lo, _ := decodePoint(first)
			hi, _ := decodePoint(last)
			meets := hi.T >= t0 && lo.T < t1
			inside := lo.T >= t0 && hi.T < t1 && (lo.T-t0)/width == (hi.T-t0)/width
			if meets && !inside {
				cut++
			}
		}
		logstore.PutPageBuf(buf)
		chip := s.points.Chip()
		chip.ResetStats()
		got, err := s.Downsample(t0, t1, width)
		if err != nil {
			t.Fatal(err)
		}
		reads := chip.Stats().PageReads
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Downsample(%d, %d, %d) = %+v, per-bucket Window %+v", trial, t0, t1, width, got, want)
		}
		if want := int64(s.points.SummaryPages() + cut); reads != want {
			t.Errorf("trial %d: %d page reads, want %d summary pages + %d cut segments", trial, reads, s.points.SummaryPages(), cut)
		}
		s.Drop()
	}
}

func TestNegativeValuesAndTimes(t *testing.T) {
	s := testSeries()
	defer s.Drop()
	s.Append(Point{T: -100, V: -5})
	s.Append(Point{T: -50, V: 10})
	s.Append(Point{T: 0, V: -20})
	agg, _, err := s.Window(-100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 3 || agg.Sum != -15 || agg.Min != -20 || agg.Max != 10 {
		t.Errorf("agg = %+v", agg)
	}
}

// Property: Window == ScanWindow on arbitrary monotone series and windows.
func TestQuickWindowEquivalence(t *testing.T) {
	f := func(deltas []uint8, vals []int16, a, b int16) bool {
		s := testSeries()
		defer s.Drop()
		tcur := int64(0)
		n := len(deltas)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			tcur += int64(deltas[i] % 4)
			if s.Append(Point{T: tcur, V: int64(vals[i])}) != nil {
				return false
			}
		}
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		fast, _, err := s.Window(lo, hi)
		if err != nil {
			return false
		}
		slow, err := s.ScanWindow(lo, hi)
		if err != nil {
			return false
		}
		return fast == slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
