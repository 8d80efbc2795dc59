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
	t := spanTree{off: make([]int, n+1)}
	parent := make([]int, n)
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
	t.kid = make([]int, n-len(t.roots))
	for i, p := range parent {
		if p >= 0 {
			t.kid[t.off[p]] = i
			t.off[p]++
		}
	}
	copy(t.off[1:], t.off[:n])
	t.off[0] = 0
	return t
}

// canonicalSpans renumbers a span list by causal structure: siblings are
// ordered by (start time, name, attrs, end time) and ids assigned in DFS
// preorder, parent links rewritten to match. Raw Start-order ids depend on
// goroutine interleaving under a parallel token fleet; the canonical form
// depends only on what work happened, so two identical Workers=N runs
// export the same spans. Ties between fully identical childless records
// are harmless: either order serializes to the same bytes. The result is a
// fresh slice; spans is not modified.
func canonicalSpans(spans []SpanRecord) []SpanRecord {
	if len(spans) == 0 {
		return nil
	}
	t := buildSpanTree(spans)
	o := siblingOrder{spans: spans}
	slices.SortFunc(t.roots, o.compare)
	out := make([]SpanRecord, 0, len(spans))
	var walk func(i, parent int)
	walk = func(i, parent int) {
		sp := spans[i]
		sp.ID = len(out) + 1
		sp.Parent = parent
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
	tails []string
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
	if len(x.Name) == len(y.Name) && len(x.Attrs) == 0 && len(y.Attrs) == 0 {
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
	fmt.Fprintf(&b, "|%019d", max(sp.EndNS, 0))
	o.tails[i] = b.String()
	return o.tails[i]
}
