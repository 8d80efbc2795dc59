package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// spanTree indexes a span list by its parent links, as positions into the
// list: roots and every span's children, both in list order. A span whose
// parent is missing from the list, or is the span itself, is a root.
type spanTree struct {
	roots []int
	off   []int // children of span i are kid[off[i]:off[i+1]]
	kid   []int
}

func (t *spanTree) kids(i int) []int { return t.kid[t.off[i]:t.off[i+1]] }

func buildSpanTree(spans []SpanRecord) spanTree {
	var t spanTree
	t.build(spans, nil)
	return t
}

// build indexes spans into t, reusing t's lists and the parent scratch
// (grown to len(spans)); it returns the scratch for the next build.
func (t *spanTree) build(spans []SpanRecord, parent []int) []int {
	n := len(spans)
	// A live tracer numbers its spans densely (id == position+1), so a
	// parent id is its position; only merged or parsed lists need a map.
	dense := true
	for i := range spans {
		if spans[i].ID != i+1 {
			dense = false
			break
		}
	}
	var byID map[int]int
	if !dense {
		byID = make(map[int]int, n)
		for i := range spans {
			byID[spans[i].ID] = i
		}
	}
	t.roots = t.roots[:0]
	t.off = append(t.off[:0], make([]int, n+1)...)
	parent = append(parent[:0], make([]int, n)...)
	for i := range spans {
		p, ok := spans[i].Parent-1, false
		if pid := spans[i].Parent; pid != 0 && pid != spans[i].ID {
			if dense {
				ok = pid >= 1 && pid <= n
			} else {
				p, ok = byID[pid]
			}
		}
		if !ok {
			parent[i] = -1
			t.roots = append(t.roots, i)
			continue
		}
		parent[i] = p
		t.off[p+1]++
	}
	for i := 0; i < n; i++ {
		t.off[i+1] += t.off[i]
	}
	// Fill with off[p] as span p's cursor, then shift the cursors back.
	t.kid = append(t.kid[:0], make([]int, n-len(t.roots))...)
	for i, p := range parent {
		if p >= 0 {
			t.kid[t.off[p]] = i
			t.off[p]++
		}
	}
	copy(t.off[1:], t.off[:n])
	t.off[0] = 0
	return parent
}

// canonicalSpans renumbers a span list by causal structure: siblings are
// ordered by (start time, name, attrs, end time) and ids assigned in DFS
// preorder, parent links rewritten to match. Raw Start-order ids depend on
// goroutine interleaving under a parallel token fleet; the canonical form
// depends only on what work happened, so two identical Workers=N runs
// export the same spans. Ties between fully identical childless records
// are harmless: either order serializes to the same bytes. attrs, when
// set, holds span i's attributes at attrs[i] for records that keep them
// elsewhere (a tracer's side table), and the output records carry them;
// otherwise they are the records' own Attrs. The result is a fresh slice;
// spans is not modified.
func canonicalSpans(spans []SpanRecord, attrs []map[string]string) []SpanRecord {
	if len(spans) == 0 {
		return nil
	}
	t := buildSpanTree(spans)
	o := siblingOrder{spans: spans, maps: attrs}
	slices.SortFunc(t.roots, o.compare)
	out := make([]SpanRecord, 0, len(spans))
	var walk func(i, parent int)
	walk = func(i, parent int) {
		sp := spans[i]
		sp.ID = len(out) + 1
		sp.Parent = parent
		if attrs != nil {
			sp.Attrs = attrs[i]
		}
		out = append(out, sp)
		kids := t.kids(i)
		slices.SortFunc(kids, o.compare)
		for _, k := range kids {
			walk(k, sp.ID)
		}
	}
	for _, r := range t.roots {
		walk(r, 0)
	}
	return out
}

// siblingOrder orders siblings by the string
//
//	pad(start) | name | k=v,... | pad(end)
//
// (pad: 19 decimal digits of the time clamped at 0, so string order is
// numeric order; attrs sorted by key) without building it: the padded
// start is a numeric comparison, names that differ inside their common
// length decide at that byte, and equal names without attrs leave only the
// numeric end. Only when one name is a prefix of the other, or attrs are
// in play, is the rest of the string — the tail — rendered and cached.
type siblingOrder struct {
	spans []SpanRecord
	// Records that keep their attributes elsewhere (a tracer's side
	// table) have them at maps[i], gathered in one pass, or — when only
	// a few spans are compared — gathered by attrs, once per span, into
	// gathered. Otherwise they are Attrs.
	maps     []map[string]string
	attrs    func(i int) map[string]string
	gathered map[int]map[string]string
	tails    []string
}

func (o *siblingOrder) attrsOf(i int) map[string]string {
	switch {
	case o.maps != nil:
		return o.maps[i]
	case o.attrs == nil:
		return o.spans[i].Attrs
	}
	m, ok := o.gathered[i]
	if !ok {
		if o.gathered == nil {
			o.gathered = map[int]map[string]string{}
		}
		m = o.attrs(i)
		o.gathered[i] = m
	}
	return m
}

func (o *siblingOrder) compare(a, b int) int {
	x, y := &o.spans[a], &o.spans[b]
	if c := cmp.Compare(max(x.StartNS, 0), max(y.StartNS, 0)); c != 0 {
		return c
	}
	n := min(len(x.Name), len(y.Name))
	if c := strings.Compare(x.Name[:n], y.Name[:n]); c != 0 {
		return c
	}
	if len(x.Name) == len(y.Name) && len(o.attrsOf(a)) == 0 && len(o.attrsOf(b)) == 0 {
		return cmp.Compare(max(x.EndNS, 0), max(y.EndNS, 0))
	}
	return strings.Compare(o.tail(a), o.tail(b))
}

// tail renders name | attrs | pad(end) for span i, once.
func (o *siblingOrder) tail(i int) string {
	if o.tails == nil {
		o.tails = make([]string, len(o.spans))
	}
	if o.tails[i] != "" {
		return o.tails[i]
	}
	sp := &o.spans[i]
	var b strings.Builder
	b.WriteString(sp.Name)
	b.WriteByte('|')
	if attrs := o.attrsOf(i); len(attrs) > 0 {
		ks := make([]string, 0, len(attrs))
		for k := range attrs {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(attrs[k])
			b.WriteByte(',')
		}
	}
	fmt.Fprintf(&b, "|%019d", max(sp.EndNS, 0))
	o.tails[i] = b.String()
	return o.tails[i]
}
