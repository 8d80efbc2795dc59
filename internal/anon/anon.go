// Package anon implements privacy-preserving data publishing as the
// tutorial frames it ([ANP13]-style): personal microdata collected from
// many PDSs is anonymized inside trusted tokens before publication, using
// full-domain generalization over quasi-identifier hierarchies to reach
// k-anonymity (and optionally l-diversity), with standard information-loss
// metrics so the privacy/utility trade-off is measurable.
package anon

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Hierarchy is a domain generalization hierarchy for one quasi-identifier:
// level 0 is the exact value; Levels()-1 is full suppression.
type Hierarchy interface {
	// Levels returns the number of generalization levels (>= 1).
	Levels() int
	// Generalize maps a value to its representation at the given level.
	Generalize(value string, level int) string
}

// PrefixHierarchy generalizes strings by truncating suffixes (the classic
// zipcode ladder: 75013 → 7501* → 750** → ...). Level L keeps MaxLen-L
// characters; the final level is full suppression ("*").
type PrefixHierarchy struct {
	MaxLen int
}

// Levels returns MaxLen+1 levels (exact .. fully suppressed).
func (h PrefixHierarchy) Levels() int { return h.MaxLen + 1 }

// Generalize truncates value to MaxLen-level characters, padding with '*'.
func (h PrefixHierarchy) Generalize(v string, level int) string {
	if level <= 0 {
		return v
	}
	if level >= h.MaxLen || level >= len(v) {
		return "*"
	}
	keep := len(v) - level
	return v[:keep] + strings.Repeat("*", level)
}

// RangeHierarchy generalizes integer values into ranges that double in
// width per level: level 0 is exact, level i covers Base·2^(i-1) values,
// the top level is "*".
type RangeHierarchy struct {
	Base  int64 // width at level 1 (e.g. 5 for ages → [20-24])
	Depth int   // number of widening levels before suppression
}

// Levels returns Depth+2: exact, Depth range levels, suppression.
func (h RangeHierarchy) Levels() int { return h.Depth + 2 }

// Generalize renders the covering range of v at the level.
func (h RangeHierarchy) Generalize(v string, level int) string {
	if level <= 0 {
		return v
	}
	if level > h.Depth {
		return "*"
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return "*"
	}
	width := h.Base << (level - 1)
	lo := (n / width) * width
	if n < 0 && n%width != 0 {
		lo -= width
	}
	return fmt.Sprintf("[%d-%d]", lo, lo+width-1)
}

// Record is one microdata row: quasi-identifiers plus a sensitive value.
type Record struct {
	QI        []string
	Sensitive string
}

// Dataset couples records with their QI hierarchies.
type Dataset struct {
	QINames     []string
	Hierarchies []Hierarchy
	Records     []Record
}

// Validate checks structural consistency.
func (ds *Dataset) Validate() error {
	if len(ds.QINames) != len(ds.Hierarchies) {
		return fmt.Errorf("anon: %d QI names for %d hierarchies", len(ds.QINames), len(ds.Hierarchies))
	}
	if len(ds.Hierarchies) == 0 {
		return errors.New("anon: no quasi-identifiers")
	}
	for i, r := range ds.Records {
		if len(r.QI) != len(ds.Hierarchies) {
			return fmt.Errorf("anon: record %d has %d QIs, want %d", i, len(r.QI), len(ds.Hierarchies))
		}
	}
	return nil
}

// Params configure the anonymization.
type Params struct {
	K int // minimum equivalence-class size (k-anonymity); required, >= 2
	L int // minimum distinct sensitive values per class (l-diversity); 0 disables
	// MaxSuppression is the fraction of records that may be suppressed
	// instead of forcing further generalization (0 = none).
	MaxSuppression float64
}

// Anonymized is a published, k-anonymous view.
type Anonymized struct {
	Levels     []int    // chosen generalization level per QI
	Records    []Record // generalized (suppressed records removed)
	Suppressed int
	Classes    int
	// InfoLoss is the Prec-style metric: mean of level/maxLevel over QIs,
	// in [0,1]; 0 = exact data, 1 = fully suppressed.
	InfoLoss float64
	// Discernibility is Σ |class|² + suppressed·N — lower is better.
	Discernibility int64
}

// Anonymization errors.
var (
	ErrBadK       = errors.New("anon: k must be >= 2")
	ErrNoSolution = errors.New("anon: no generalization satisfies the constraints")
)

// Anonymize finds the minimal-total-level full-domain generalization that
// makes the dataset k-anonymous (and l-diverse if L > 0), exploring the
// generalization lattice breadth-first by total level (Samarati-style).
func Anonymize(ds Dataset, p Params) (*Anonymized, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if p.K < 2 {
		return nil, ErrBadK
	}
	if len(ds.Records) == 0 {
		return &Anonymized{Levels: make([]int, len(ds.Hierarchies))}, nil
	}
	max := make([]int, len(ds.Hierarchies))
	maxSum := 0
	for i, h := range ds.Hierarchies {
		max[i] = h.Levels() - 1
		maxSum += max[i]
	}
	budget := int(p.MaxSuppression * float64(len(ds.Records)))

	for sum := 0; sum <= maxSum; sum++ {
		var found *Anonymized
		enumerateLevels(max, sum, func(levels []int) bool {
			a, ok := tryLevels(ds, levels, p, budget)
			if ok && (found == nil || a.InfoLoss < found.InfoLoss) {
				found = a
			}
			return false // keep scanning this rank for the best InfoLoss
		})
		if found != nil {
			return found, nil
		}
	}
	return nil, ErrNoSolution
}

// enumerateLevels visits every level vector bounded by max whose components
// sum to target. Visitor returning true stops the walk.
func enumerateLevels(max []int, target int, visit func([]int) bool) bool {
	levels := make([]int, len(max))
	var rec func(i, remaining int) bool
	rec = func(i, remaining int) bool {
		if i == len(max)-1 {
			if remaining <= max[i] {
				levels[i] = remaining
				return visit(levels)
			}
			return false
		}
		hi := remaining
		if hi > max[i] {
			hi = max[i]
		}
		for v := 0; v <= hi; v++ {
			levels[i] = v
			if rec(i+1, remaining-v) {
				return true
			}
		}
		return false
	}
	return rec(0, target)
}

// tryLevels tests one lattice node.
func tryLevels(ds Dataset, levels []int, p Params, suppressBudget int) (*Anonymized, bool) {
	type class struct {
		rows      []int
		sensitive map[string]bool
	}
	classes := map[string]*class{}
	keys := make([]string, len(ds.Records))
	var sb strings.Builder
	for i, r := range ds.Records {
		sb.Reset()
		for q, h := range ds.Hierarchies {
			sb.WriteString(h.Generalize(r.QI[q], levels[q]))
			sb.WriteByte('\x00')
		}
		key := sb.String()
		keys[i] = key
		c := classes[key]
		if c == nil {
			c = &class{sensitive: map[string]bool{}}
			classes[key] = c
		}
		c.rows = append(c.rows, i)
		c.sensitive[r.Sensitive] = true
	}
	suppressed := map[string]bool{}
	nSuppressed := 0
	for key, c := range classes {
		bad := len(c.rows) < p.K || (p.L > 0 && len(c.sensitive) < p.L)
		if bad {
			nSuppressed += len(c.rows)
			suppressed[key] = true
		}
	}
	if nSuppressed > suppressBudget {
		return nil, false
	}
	out := &Anonymized{
		Levels:     append([]int(nil), levels...),
		Suppressed: nSuppressed,
	}
	n := int64(len(ds.Records))
	for key, c := range classes {
		if suppressed[key] {
			out.Discernibility += int64(len(c.rows)) * n
			continue
		}
		out.Classes++
		out.Discernibility += int64(len(c.rows)) * int64(len(c.rows))
		for _, i := range c.rows {
			gen := Record{QI: make([]string, len(levels)), Sensitive: ds.Records[i].Sensitive}
			for q, h := range ds.Hierarchies {
				gen.QI[q] = h.Generalize(ds.Records[i].QI[q], levels[q])
			}
			out.Records = append(out.Records, gen)
		}
	}
	var loss float64
	for q, h := range ds.Hierarchies {
		if m := h.Levels() - 1; m > 0 {
			loss += float64(levels[q]) / float64(m)
		}
	}
	out.InfoLoss = loss / float64(len(ds.Hierarchies))
	return out, true
}

// VerifyKAnonymous independently checks that published records form
// equivalence classes of size >= k (a property-test helper and the check a
// regulator would run on the published table).
func VerifyKAnonymous(records []Record, k int) bool {
	counts := map[string]int{}
	for _, r := range records {
		counts[strings.Join(r.QI, "\x00")]++
	}
	for _, c := range counts {
		if c < k {
			return false
		}
	}
	return true
}

// ClassSizes returns the sorted equivalence-class sizes of published
// records (diagnostics for experiments).
func ClassSizes(records []Record) []int {
	counts := map[string]int{}
	for _, r := range records {
		counts[strings.Join(r.QI, "\x00")]++
	}
	out := make([]int, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
