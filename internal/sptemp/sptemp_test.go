package sptemp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pds/internal/flash"
)

func testTrack() *Track {
	return New(flash.NewAllocator(flash.NewChip(flash.Geometry{
		PageSize: 512, PagesPerBlock: 16, Blocks: 4096,
	})))
}

// walk generates a random walk of n fixes starting at the origin.
func walk(t *Track, n int, seed int64) []Fix {
	rng := rand.New(rand.NewSource(seed))
	var x, y int64
	out := make([]Fix, 0, n)
	for i := 0; i < n; i++ {
		x += rng.Int63n(21) - 10
		y += rng.Int63n(21) - 10
		f := Fix{T: int64(i), X: x, Y: y}
		if err := t.Append(f); err != nil {
			panic(err)
		}
		out = append(out, f)
	}
	return out
}

func TestQueryMatchesScan(t *testing.T) {
	tr := testTrack()
	defer tr.Drop()
	fixes := walk(tr, 5000, 1)
	tr.Flush()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		t0 := rng.Int63n(5000)
		t1 := t0 + rng.Int63n(5000-t0)
		f := fixes[rng.Intn(len(fixes))]
		reg := Region{MinX: f.X - 50, MinY: f.Y - 50, MaxX: f.X + 50, MaxY: f.Y + 50}
		fast, _, err := tr.Query(t0, t1, reg)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := tr.ScanQuery(t0, t1, reg)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("trial %d: %d vs %d fixes", trial, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("trial %d fix %d: %+v vs %+v", trial, i, fast[i], slow[i])
			}
		}
	}
}

func TestQueryPrunesSegments(t *testing.T) {
	tr := testTrack()
	defer tr.Drop()
	// A long walk: any small window+region should prune most segments.
	fixes := walk(tr, 20000, 3)
	tr.Flush()
	f := fixes[10000]
	chip := tr.fixes.Chip()
	chip.ResetStats()
	_, st, err := tr.Query(9900, 10100, Region{
		MinX: f.X - 30, MinY: f.Y - 30, MaxX: f.X + 30, MaxY: f.Y + 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	fastIO := chip.Stats().PageReads
	if st.SegmentsPruned == 0 {
		t.Error("no segments pruned")
	}
	if st.SegmentsRead > st.SegmentsPruned {
		t.Errorf("read %d > pruned %d; summaries not selective", st.SegmentsRead, st.SegmentsPruned)
	}
	chip.ResetStats()
	if _, err := tr.ScanQuery(9900, 10100, Region{MinX: f.X - 30, MinY: f.Y - 30, MaxX: f.X + 30, MaxY: f.Y + 30}); err != nil {
		t.Fatal(err)
	}
	scanIO := chip.Stats().PageReads
	if fastIO*3 > scanIO {
		t.Errorf("summary query %d IOs vs scan %d; want >=3x saving", fastIO, scanIO)
	}
}

func TestSpatialPruning(t *testing.T) {
	// Two spatially disjoint phases: a query on phase-1 territory with a
	// phase-2 time window must read nothing.
	tr := testTrack()
	defer tr.Drop()
	for i := int64(0); i < 1000; i++ {
		tr.Append(Fix{T: i, X: i % 10, Y: i % 10}) // near origin
	}
	for i := int64(1000); i < 2000; i++ {
		tr.Append(Fix{T: i, X: 100000 + i%10, Y: 100000 + i%10}) // far away
	}
	tr.Flush()
	fixes, st, err := tr.Query(1000, 2000, Region{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(fixes) != 0 {
		t.Errorf("query matched %d fixes, want 0", len(fixes))
	}
	// Only the single transition segment (whose bbox spans both areas)
	// may be read; everything else must be pruned by its bounding box.
	if st.SegmentsRead > 1 {
		t.Errorf("read %d segments despite disjoint bbox", st.SegmentsRead)
	}
}

func TestBufferedFixesVisible(t *testing.T) {
	tr := testTrack()
	defer tr.Drop()
	tr.Append(Fix{T: 5, X: 1, Y: 2})
	fixes, _, err := tr.Query(0, 10, Region{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5})
	if err != nil || len(fixes) != 1 {
		t.Errorf("buffered query = %v, %v", fixes, err)
	}
}

func TestValidation(t *testing.T) {
	tr := testTrack()
	defer tr.Drop()
	tr.Append(Fix{T: 10})
	if err := tr.Append(Fix{T: 5}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order err = %v", err)
	}
	if _, _, err := tr.Query(5, 1, Region{}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("inverted window err = %v", err)
	}
	if _, _, err := tr.Query(0, 1, Region{MinX: 5, MaxX: 1}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("inverted region err = %v", err)
	}
	if _, err := tr.ScanQuery(5, 1, Region{}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("scan inverted err = %v", err)
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if !r.Contains(0, 10) || r.Contains(11, 5) {
		t.Error("Contains wrong")
	}
	if !r.Intersects(Region{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}) {
		t.Error("touching regions must intersect")
	}
	if r.Intersects(Region{MinX: 11, MinY: 0, MaxX: 20, MaxY: 10}) {
		t.Error("disjoint regions intersect")
	}
}

// Property: Query == ScanQuery on random walks and random queries.
func TestQuickQueryEquivalence(t *testing.T) {
	f := func(seed int64, n uint8, t0, t1 int8, cx, cy int16) bool {
		tr := testTrack()
		defer tr.Drop()
		walk(tr, int(n)+1, seed)
		lo, hi := int64(t0), int64(t1)
		if lo > hi {
			lo, hi = hi, lo
		}
		reg := Region{MinX: int64(cx) - 20, MinY: int64(cy) - 20, MaxX: int64(cx) + 20, MaxY: int64(cy) + 20}
		fast, _, err := tr.Query(lo, hi, reg)
		if err != nil {
			return false
		}
		slow, err := tr.ScanQuery(lo, hi, reg)
		if err != nil {
			return false
		}
		if len(fast) != len(slow) {
			return false
		}
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
