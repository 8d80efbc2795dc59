package search

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pds/internal/flash"
	"pds/internal/mcu"
	"pds/internal/obs"
)

// newTestEngine returns an engine on a roomy test device.
func newTestEngine(t *testing.T, buckets int) *Engine {
	t.Helper()
	chip := flash.NewChip(flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 2048})
	e, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(0), buckets)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestAddAndSearchSingleKeyword(t *testing.T) {
	e := newTestEngine(t, 4)
	d0, _ := e.AddDocument(map[string]int{"privacy": 3, "data": 1})
	d1, _ := e.AddDocument(map[string]int{"privacy": 1, "cloud": 2})
	_, _ = e.AddDocument(map[string]int{"cloud": 5})
	res, err := e.Search([]string{"privacy"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(res), res)
	}
	if res[0].Doc != d0 || res[1].Doc != d1 {
		t.Errorf("ranking = %v, want doc %d then %d", res, d0, d1)
	}
	// TF-IDF check: idf = ln(3/2), scores 3*idf and 1*idf.
	idf := math.Log(3.0 / 2.0)
	if math.Abs(res[0].Score-3*idf) > 1e-9 || math.Abs(res[1].Score-idf) > 1e-9 {
		t.Errorf("scores = %v, want %v and %v", res, 3*idf, idf)
	}
}

// The merge counts its postings once per search, not once per posting:
// the total is every posting of the distinct keywords, a keyword named
// twice merged once, whether its postings sit in the compact area, the
// bucket chains or the insertion buffers.
func TestSearchCountsEveryPosting(t *testing.T) {
	e := newTestEngine(t, 4)
	reg := obs.NewRegistry()
	e.SetObserver(reg)
	for d := 0; d < 300; d++ {
		if d == 200 {
			if err := e.Reorganize(2, 4); err != nil {
				t.Fatal(err)
			}
		}
		doc := map[string]int{fmt.Sprintf("term-%d", d%7): 1 + d%3, fmt.Sprintf("term-%d", (d*3+1)%7): 1}
		if _, err := e.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	before := reg.CounterValue(MetricPostings)
	if _, err := e.Search([]string{"term-2", "term-5", "term-2"}, 4); err != nil {
		t.Fatal(err)
	}
	want := int64(e.DocFreq("term-2") + e.DocFreq("term-5"))
	if got := reg.CounterValue(MetricPostings) - before; got != want || want == 0 {
		t.Errorf("search counted %d postings, want %d", got, want)
	}
}

func TestSearchMultiKeyword(t *testing.T) {
	e := newTestEngine(t, 4)
	dBoth, _ := e.AddDocument(map[string]int{"alpha": 2, "beta": 2})
	dAlpha, _ := e.AddDocument(map[string]int{"alpha": 2})
	dBeta, _ := e.AddDocument(map[string]int{"beta": 2})
	e.AddDocument(map[string]int{"gamma": 1})
	res, err := e.Search([]string{"alpha", "beta"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].Doc != dBoth {
		t.Errorf("doc with both keywords should rank first, got %v", res)
	}
	found := map[DocID]bool{}
	for _, r := range res {
		found[r.Doc] = true
	}
	if !found[dAlpha] || !found[dBeta] {
		t.Errorf("OR semantics violated: %v", res)
	}
}

func TestSearchAcrossFlushes(t *testing.T) {
	// Postings must be found in flushed chain pages AND the RAM buffer.
	e := newTestEngine(t, 2)
	var want []DocID
	for i := 0; i < 300; i++ {
		d, err := e.AddDocument(map[string]int{"needle": 1, fmt.Sprintf("filler%d", i): 2})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	if e.Pages() == 0 {
		t.Fatal("expected some flushed pages")
	}
	res, err := e.Search([]string{"needle"}, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("found %d docs, want %d", len(res), len(want))
	}
}

func TestTopNBounded(t *testing.T) {
	e := newTestEngine(t, 2)
	for i := 0; i < 100; i++ {
		e.AddDocument(map[string]int{"common": i + 1})
	}
	res, err := e.Search([]string{"common"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("topN = %d results, want 5", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Errorf("results not sorted by score: %v", res)
		}
	}
	// idf is identical, so highest tf (latest docs) must win.
	if res[0].Doc != DocID(99) {
		t.Errorf("top doc = %d, want 99", res[0].Doc)
	}
}

func TestSearchValidation(t *testing.T) {
	e := newTestEngine(t, 2)
	if _, err := e.Search(nil, 5); !errors.Is(err, ErrNoKeywords) {
		t.Errorf("empty keywords err = %v", err)
	}
	if _, err := e.Search([]string{"x"}, 0); !errors.Is(err, ErrBadTopN) {
		t.Errorf("topN=0 err = %v", err)
	}
	if _, err := e.NaiveSearch(nil, 5); !errors.Is(err, ErrNoKeywords) {
		t.Errorf("naive empty keywords err = %v", err)
	}
	if _, err := e.NaiveSearch([]string{"x"}, 0); !errors.Is(err, ErrBadTopN) {
		t.Errorf("naive topN=0 err = %v", err)
	}
	long := make([]byte, 256)
	if _, err := e.AddDocument(map[string]int{string(long): 1}); !errors.Is(err, ErrTermTooLong) {
		t.Errorf("long term err = %v", err)
	}
}

func TestUnknownKeyword(t *testing.T) {
	e := newTestEngine(t, 2)
	e.AddDocument(map[string]int{"a": 1})
	res, err := e.Search([]string{"missing"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("unknown keyword returned %v", res)
	}
}

func TestDuplicateKeywordsDeduped(t *testing.T) {
	e := newTestEngine(t, 2)
	e.AddDocument(map[string]int{"x": 2})
	e.AddDocument(map[string]int{"x": 1, "y": 1})
	r1, _ := e.Search([]string{"x"}, 5)
	r2, err := e.Search([]string{"x", "x", "x"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("dup keywords changed result count: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("dup keywords changed scores: %v vs %v", r1, r2)
		}
	}
}

func TestZeroAndNegativeWeightsSkipped(t *testing.T) {
	e := newTestEngine(t, 2)
	e.AddDocument(map[string]int{"a": 0, "b": -3, "c": 1})
	if e.DocFreq("a") != 0 || e.DocFreq("b") != 0 || e.DocFreq("c") != 1 {
		t.Errorf("df = a:%d b:%d c:%d", e.DocFreq("a"), e.DocFreq("b"), e.DocFreq("c"))
	}
}

func TestWeightClamped(t *testing.T) {
	e := newTestEngine(t, 2)
	e.AddDocument(map[string]int{"big": 1 << 20})
	e.AddDocument(map[string]int{"big": 1}) // make idf > 0? both docs have it -> idf = 0
	e.AddDocument(map[string]int{"other": 1})
	res, err := e.Search([]string{"big"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	idf := math.Log(3.0 / 2.0)
	if math.Abs(res[0].Score-65535*idf) > 1e-6 {
		t.Errorf("clamped score = %v, want %v", res[0].Score, 65535*idf)
	}
}

func TestNaiveMatchesPipelined(t *testing.T) {
	e := newTestEngine(t, 8)
	rng := rand.New(rand.NewSource(42))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i := 0; i < 500; i++ {
		doc := map[string]int{}
		for j := 0; j < 1+rng.Intn(4); j++ {
			doc[vocab[rng.Intn(len(vocab))]] = 1 + rng.Intn(5)
		}
		if _, err := e.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, kws := range [][]string{{"a"}, {"a", "b"}, {"c", "d", "e"}, vocab} {
		p, err := e.Search(kws, 10)
		if err != nil {
			t.Fatal(err)
		}
		n, err := e.NaiveSearch(kws, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != len(n) {
			t.Fatalf("kw %v: pipelined %d vs naive %d results", kws, len(p), len(n))
		}
		for i := range p {
			if p[i].Doc != n[i].Doc || math.Abs(p[i].Score-n[i].Score) > 1e-9 {
				t.Errorf("kw %v rank %d: pipelined %v vs naive %v", kws, i, p[i], n[i])
			}
		}
	}
}

func TestPipelinedRAMBounded(t *testing.T) {
	// The headline claim: pipelined search works in ~1 page per keyword
	// even when the naive approach exhausts the MCU RAM.
	chip := flash.NewChip(flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 4096})
	arena := mcu.NewArena(6 * 256) // 6 pages of RAM total
	e, err := NewEngine(flash.NewAllocator(chip), arena, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 2000; i++ {
		if _, err := e.AddDocument(map[string]int{"hot": 1 + i%7}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Search([]string{"hot"}, 10); err != nil {
		t.Fatalf("pipelined search under tight RAM: %v", err)
	}
	if _, err := e.NaiveSearch([]string{"hot"}, 10); !errors.Is(err, mcu.ErrOutOfRAM) {
		t.Errorf("naive search err = %v, want ErrOutOfRAM", err)
	}
	if arena.Used() != 4*256 {
		t.Errorf("leaked query memory: used=%d, want only insertion buffers (%d)", arena.Used(), 4*256)
	}
}

func TestSearchIOCost(t *testing.T) {
	// A single-keyword query must read only that bucket's chain, not the
	// whole index.
	chip := flash.NewChip(flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 4096})
	e, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(0), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 1000; i++ {
		e.AddDocument(map[string]int{fmt.Sprintf("term%d", i%64): 1})
	}
	e.Flush()
	total := e.Pages()
	chip.ResetStats()
	if _, err := e.Search([]string{"term0"}, 10); err != nil {
		t.Fatal(err)
	}
	reads := chip.Stats().PageReads
	if reads >= int64(total) {
		t.Errorf("query read %d pages of %d total; bucket chains not selective", reads, total)
	}
}

func TestDescendingDocIDInvariant(t *testing.T) {
	// Walking any cursor must yield strictly descending docids — the merge
	// correctness invariant.
	e := newTestEngine(t, 2)
	for i := 0; i < 400; i++ {
		e.AddDocument(map[string]int{"k": 1})
	}
	c := e.openCursor("k")
	ok, err := c.prime()
	if err != nil {
		t.Fatal(err)
	}
	last := DocID(math.MaxUint32)
	n := 0
	for ok {
		tr, _ := c.head()
		if tr.doc >= last {
			t.Fatalf("docid %d not descending after %d", tr.doc, last)
		}
		last = tr.doc
		n++
		ok, err = c.advance()
		if err != nil {
			t.Fatal(err)
		}
	}
	if n != 400 {
		t.Errorf("cursor yielded %d postings, want 400", n)
	}
}

func TestEngineValidation(t *testing.T) {
	chip := flash.NewChip(flash.SmallGeometry())
	if _, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(0), 0); err == nil {
		t.Error("nbuckets=0 accepted")
	}
	// Arena too small for insertion buffers.
	if _, err := NewEngine(flash.NewAllocator(chip), mcu.NewArena(100), 4); !errors.Is(err, mcu.ErrOutOfRAM) {
		t.Errorf("tiny arena err = %v", err)
	}
}

func TestCloseReleasesResources(t *testing.T) {
	chip := flash.NewChip(flash.SmallGeometry())
	alloc := flash.NewAllocator(chip)
	arena := mcu.NewArena(0)
	e, err := NewEngine(alloc, arena, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e.AddDocument(map[string]int{"x": 1})
	}
	e.Flush()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if alloc.InUse() != 0 {
		t.Errorf("blocks leaked: %d", alloc.InUse())
	}
	if arena.Used() != 0 {
		t.Errorf("RAM leaked: %d", arena.Used())
	}
}

// Exhaustive cross-check against a straightforward in-memory reference.
func TestAgainstReferenceImplementation(t *testing.T) {
	e := newTestEngine(t, 8)
	rng := rand.New(rand.NewSource(7))
	type doc map[string]int
	var corpus []doc
	vocab := make([]string, 20)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	for i := 0; i < 200; i++ {
		d := doc{}
		for j := 0; j < 1+rng.Intn(6); j++ {
			d[vocab[rng.Intn(len(vocab))]] = 1 + rng.Intn(9)
		}
		corpus = append(corpus, d)
		if _, err := e.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	df := map[string]int{}
	for _, d := range corpus {
		for term := range d {
			df[term]++
		}
	}
	refScore := func(kws []string) map[DocID]float64 {
		// The engine deduplicates query keywords; mirror that.
		uniq := map[string]bool{}
		var dedup []string
		for _, k := range kws {
			if !uniq[k] {
				uniq[k] = true
				dedup = append(dedup, k)
			}
		}
		kws = dedup
		out := map[DocID]float64{}
		for id, d := range corpus {
			s := 0.0
			for _, k := range kws {
				if tf, ok := d[k]; ok {
					s += float64(tf) * math.Log(float64(len(corpus))/float64(df[k]))
				}
			}
			if s != 0 {
				out[DocID(id)] = s
			}
		}
		return out
	}
	for trial := 0; trial < 20; trial++ {
		nk := 1 + rng.Intn(4)
		kws := make([]string, nk)
		for i := range kws {
			kws[i] = vocab[rng.Intn(len(vocab))]
		}
		got, err := e.Search(kws, 1000)
		if err != nil {
			t.Fatal(err)
		}
		want := refScore(kws)
		if len(got) != len(want) {
			t.Fatalf("kws %v: %d results, want %d", kws, len(got), len(want))
		}
		for _, r := range got {
			if math.Abs(want[r.Doc]-r.Score) > 1e-9 {
				t.Errorf("kws %v doc %d: score %v, want %v", kws, r.Doc, r.Score, want[r.Doc])
			}
		}
		// Verify descending-score order.
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].Score != got[j].Score {
				return got[i].Score > got[j].Score
			}
			return got[i].Doc > got[j].Doc
		}) {
			t.Errorf("kws %v: results not sorted", kws)
		}
	}
}
