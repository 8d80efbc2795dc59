package obs

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// sortKey is the sibling order canonicalSpans used to materialize per
// span: start time first (zero-padded so the string order matches numeric
// order), then name, attrs and end time. It stays here as the oracle the
// typed comparison must agree with.
func sortKey(sp SpanRecord) string {
	var b strings.Builder
	padInt(&b, sp.StartNS)
	b.WriteByte('|')
	b.WriteString(sp.Name)
	b.WriteByte('|')
	if len(sp.Attrs) > 0 {
		ks := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(sp.Attrs[k])
			b.WriteByte(',')
		}
	}
	b.WriteByte('|')
	padInt(&b, sp.EndNS)
	return b.String()
}

func padInt(b *strings.Builder, v int64) {
	if v < 0 {
		v = 0
	}
	const width = 19
	var buf [width]byte
	for i := width - 1; i >= 0; i-- {
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	b.Write(buf[:])
}

// referenceCanonical is the map-and-string-key renumbering the typed one
// replaced, kept as the oracle for whole lists.
func referenceCanonical(spans []SpanRecord) []SpanRecord {
	byID := map[int]int{}
	for i, sp := range spans {
		byID[sp.ID] = i
	}
	children := map[int][]int{}
	var roots []int
	for i, sp := range spans {
		if _, ok := byID[sp.Parent]; ok && sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
			continue
		}
		roots = append(roots, i)
	}
	order := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return sortKey(spans[idx[a]]) < sortKey(spans[idx[b]]) })
	}
	order(roots)
	var out []SpanRecord
	var walk func(i, parent int)
	walk = func(i, parent int) {
		sp := spans[i]
		sp.ID, sp.Parent = len(out)+1, parent
		out = append(out, sp)
		kids := children[spans[i].ID]
		order(kids)
		for _, k := range kids {
			walk(k, sp.ID)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}

// randomSpans draws a forest that exercises every branch of the sibling
// order: names that are prefixes of each other (also across the '|'
// separator), nil, empty and non-empty attrs, negative and tied times,
// wide sibling groups, dangling parents, and — when !dense — ids that do
// not equal list positions.
func randomSpans(rng *rand.Rand, n int, dense bool) []SpanRecord {
	names := []string{"a", "ab", "ab|", "a|b", "xfer:tuple", "xfer", "ack", ""}
	spans := make([]SpanRecord, n)
	for i := range spans {
		sp := SpanRecord{ID: i + 1, Name: names[rng.Intn(len(names))]}
		if !dense {
			sp.ID = 3 * (i + 1)
		}
		switch {
		case i > 0 && rng.Intn(10) > 0:
			sp.Parent = spans[rng.Intn(min(i, 4))].ID
		case rng.Intn(4) == 0:
			sp.Parent = 1 << 20 // dangling
		}
		sp.StartNS = int64(rng.Intn(6)) - 1
		sp.EndNS = sp.StartNS + int64(rng.Intn(5)) - 1
		switch rng.Intn(5) {
		case 0:
			sp.Attrs = map[string]string{}
		case 1:
			sp.Attrs = map[string]string{"k": []string{"", "v", "w"}[rng.Intn(3)]}
		case 2:
			sp.Attrs = map[string]string{"k": "v", "a": []string{"1", "2"}[rng.Intn(2)]}
		}
		spans[i] = sp
	}
	return spans
}

func TestSiblingOrderMatchesSortKeyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sign := func(c int) int { return min(max(c, -1), 1) }
	for it := 0; it < 200; it++ {
		spans := randomSpans(rng, 40, true)
		o := siblingOrder{spans: spans}
		for a := range spans {
			for b := range spans {
				want := strings.Compare(sortKey(spans[a]), sortKey(spans[b]))
				if got := sign(o.compare(a, b)); got != want {
					t.Fatalf("compare(%+v, %+v) = %d, oracle %d", spans[a], spans[b], got, want)
				}
			}
		}
	}
}

func TestCanonicalSpansMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for it := 0; it < 300; it++ {
		spans := randomSpans(rng, 1+rng.Intn(300), it%2 == 0)
		in := append([]SpanRecord(nil), spans...)
		got, want := canonicalSpans(in, nil), referenceCanonical(spans)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: canonical form differs from the reference\n got %v\nwant %v", it, got, want)
		}
		if !reflect.DeepEqual(in, spans) {
			t.Fatalf("iteration %d: canonicalSpans modified its input", it)
		}
	}
}

// A leaf span must cost the critical-path walk no allocation: the walk
// allocates its per-list tables and its scratch once, however many leaves
// hang under a span.
func TestCriticalPathAllocsIndependentOfLeaves(t *testing.T) {
	allocs := func(leaves int) float64 {
		spans := []SpanRecord{{ID: 1, Name: "root", EndNS: 1000}, {ID: 2, Parent: 1, Name: "phase", EndNS: 1000}}
		for i := 0; i < leaves; i++ {
			spans = append(spans, SpanRecord{ID: 3 + i, Parent: 2, Name: "xfer", StartNS: int64(i % 900), EndNS: int64(i%900 + 50)})
		}
		return testing.AllocsPerRun(20, func() { ComputeCriticalPath(spans) })
	}
	few, many := allocs(10), allocs(2000)
	// 14 tables in a plain build; instrumented builds move a few closures
	// to the heap, which the slack covers.
	if many != few || many > 24 {
		t.Fatalf("ComputeCriticalPath: %.0f allocs with 10 leaves, %.0f with 2000; want the same <= 24 tables", few, many)
	}
}
