package obs

import (
	"cmp"
	"slices"
	"sort"
)

// PhasePath summarizes one top-level phase of a trace: how much simulated
// time its subtree keeps on the longest dependency chain (ChainNS), how
// much span time it holds in total (WorkNS), and how much of that work ran
// off the chain in parallel (SlackNS = WorkNS - ChainNS, clamped at 0).
type PhasePath struct {
	Name    string `json:"name"`
	ChainNS int64  `json:"chain_ns"`
	WorkNS  int64  `json:"work_ns"`
	SlackNS int64  `json:"slack_ns"`
	Spans   int    `json:"spans"`
}

// CriticalPath is the critical-path report over a finished span DAG:
// TotalNS is the longest dependency chain through the trace, WorkNS the
// total span time (each span counted by its self time, so nesting does not
// double-count), and SlackNS the work that overlapped the chain in
// parallel. Phases breaks the report down by the direct children of the
// primary root — for a gquery run, the protocol phases in execution order.
type CriticalPath struct {
	TotalNS int64       `json:"total_ns"`
	WorkNS  int64       `json:"work_ns"`
	SlackNS int64       `json:"slack_ns"`
	Phases  []PhasePath `json:"phases,omitempty"`
}

// interval is one weighted child interval for the chain scheduler.
type interval struct {
	start, end, weight int64
}

// ComputeCriticalPath walks a span list (typically Snapshot.Spans) and
// derives the critical-path report. The chain through a span is the larger
// of its own duration and the best sum of non-overlapping child chains —
// under the single simulated clock a parent always covers its children, so
// for a well-nested trace the chain equals the enclosing span's duration,
// and the interesting signal is how much parallel work (slack) hid inside
// it. Spans whose parent is missing from the list count as roots.
func ComputeCriticalPath(spans []SpanRecord) CriticalPath {
	if len(spans) == 0 {
		return CriticalPath{}
	}
	t := buildSpanTree(spans)
	chain := make([]int64, len(spans))
	work := make([]int64, len(spans))
	size := make([]int, len(spans))
	var sc schedScratch
	var visit func(i int)
	visit = func(i int) {
		sp := &spans[i]
		dur := max(sp.EndNS-sp.StartNS, 0)
		size[i], chain[i] = 1, dur
		kids := t.kids(i)
		if len(kids) == 0 {
			// A leaf is all self time.
			work[i] = dur
			return
		}
		for _, k := range kids {
			visit(k)
			size[i] += size[k]
			work[i] += work[k]
		}
		// The children are done with the scratch; lay their intervals out.
		ivs := slices.Grow(sc.ivs[:0], len(kids))
		for _, k := range kids {
			ivs = append(ivs, interval{spans[k].StartNS, spans[k].EndNS, chain[k]})
		}
		sc.ivs = ivs
		// Self time: the part of the span's interval no child covers.
		if self := dur - sc.unionWithin(ivs, sp.StartNS, sp.EndNS); self > 0 {
			work[i] += self
		}
		chain[i] = max(dur, sc.longestSchedule(ivs))
	}
	for _, r := range t.roots {
		visit(r)
	}

	rootIvs := make([]interval, len(t.roots))
	var cp CriticalPath
	primary := t.roots[0]
	for j, r := range t.roots {
		rootIvs[j] = interval{spans[r].StartNS, spans[r].EndNS, chain[r]}
		cp.WorkNS += work[r]
		if chain[r] > chain[primary] {
			primary = r
		}
	}
	cp.TotalNS = sc.longestSchedule(rootIvs)
	if slack := cp.WorkNS - cp.TotalNS; slack > 0 {
		cp.SlackNS = slack
	}

	// Phase breakdown: the primary root's direct children in start order,
	// ties broken as the canonical export orders siblings, so raw and
	// canonical span numbering give the same breakdown.
	kids := slices.Clone(t.kids(primary))
	o := siblingOrder{spans: spans}
	slices.SortFunc(kids, o.compare)
	for _, k := range kids {
		ph := PhasePath{
			Name:    spans[k].Name,
			ChainNS: chain[k],
			WorkNS:  work[k],
			Spans:   size[k],
		}
		if slack := ph.WorkNS - ph.ChainNS; slack > 0 {
			ph.SlackNS = slack
		}
		cp.Phases = append(cp.Phases, ph)
	}
	return cp
}

// CriticalPath is ComputeCriticalPath over the tracer's own records, walked
// in place under the lock: the walk does not depend on span numbering, so
// it needs neither the renumbering nor the attrs copies of Spans.
func (t *Tracer) CriticalPath() CriticalPath {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ComputeCriticalPath(t.spans)
}

// schedScratch is the working memory of one critical-path walk, grown once
// and reused for every span instead of allocated per span.
type schedScratch struct {
	ivs, tmp []interval
	dp       []int64
}

// unionWithin returns the total length of the union of the intervals,
// clipped to [lo, hi].
func (sc *schedScratch) unionWithin(ivs []interval, lo, hi int64) int64 {
	if len(ivs) == 0 || hi <= lo {
		return 0
	}
	clipped := slices.Grow(sc.tmp[:0], len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{start: s, end: e})
		}
	}
	sc.tmp = clipped
	slices.SortFunc(clipped, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var total int64
	curStart, curEnd := int64(0), int64(0)
	open := false
	for _, iv := range clipped {
		if !open || iv.start > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = iv.start, iv.end, true
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// longestSchedule is weighted interval scheduling: the maximum total
// weight over a pairwise non-overlapping subset of the intervals — the
// longest sequential dependency chain the intervals admit.
func (sc *schedScratch) longestSchedule(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append(sc.tmp[:0], ivs...)
	sc.tmp = sorted
	slices.SortFunc(sorted, func(a, b interval) int {
		return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.start, b.start))
	})
	dp := append(sc.dp[:0], make([]int64, len(sorted)+1)...)
	sc.dp = dp
	for i, iv := range sorted {
		// Last interval ending at or before this one starts.
		p := sort.Search(len(sorted), func(j int) bool { return sorted[j].end > iv.start })
		dp[i+1] = max(dp[i], dp[p]+iv.weight)
	}
	return dp[len(sorted)]
}
