package smc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"pds/internal/transport"
)

// The [CKV+02] paper the tutorial presents positions its toolkit as the
// way to compute association rules and clusters over horizontally
// partitioned private data. This file builds both applications on the
// secure-sum primitive: parties only ever disclose masked partial counts
// (ring protocol), never raw transactions or points.

// Transaction is one basket of item ids held by some party.
type Transaction []int64

// ItemSet is a sorted set of item ids.
type ItemSet []int64

func (s ItemSet) key() string {
	out := make([]byte, 0, len(s)*4)
	for _, it := range s {
		out = append(out, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(out)
}

// contains reports whether the transaction holds every item of s.
func (t Transaction) contains(s ItemSet) bool {
	for _, want := range s {
		if !slices.Contains(t, want) {
			return false
		}
	}
	return true
}

// Rule is one association rule with its global metrics.
type Rule struct {
	Antecedent ItemSet
	Consequent ItemSet
	Support    float64 // fraction of all transactions containing both sides
	Confidence float64 // support(both) / support(antecedent)
}

// Mining errors.
var (
	ErrNoTransactions = errors.New("smc: parties hold no transactions")
	ErrBadThreshold   = errors.New("smc: thresholds must be in (0, 1]")
)

// sumModulus bounds counts; far above any realistic transaction count.
const sumModulus = int64(1) << 40

// count runs one secure-sum round over the parties' local counts on the
// wire of the mining run that owns r, whose registry counts its hops.
func (r ring) count(local []int64, rng *rand.Rand) (int64, error) {
	return r.walk(local, 0, sumModulus, rng.Int63n(sumModulus))
}

// MineAssociationRules runs privacy-preserving distributed Apriori over
// horizontally partitioned transactions: every global support count is
// obtained with the secure-sum ring, so each party reveals only masked
// partials. The returned rules satisfy both thresholds; supports are
// global fractions. Every ring runs over w and the Trace counts them all.
func MineAssociationRules(w transport.Transport, parties [][]Transaction, minSupport, minConfidence float64, rng *rand.Rand) ([]Rule, *Trace, error) {
	if len(parties) < 3 {
		return nil, nil, ErrTooFewParties
	}
	if minSupport <= 0 || minSupport > 1 || minConfidence <= 0 || minConfidence > 1 {
		return nil, nil, ErrBadThreshold
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	run := borrow(w)
	defer run.release()
	r := run.ring()
	// Global transaction count (itself a secure sum: |DB_i| is private).
	localN := make([]int64, len(parties))
	for i, txs := range parties {
		localN[i] = int64(len(txs))
	}
	total, err := r.count(localN, rng)
	if err != nil {
		return nil, nil, err
	}
	if total == 0 {
		return nil, nil, ErrNoTransactions
	}
	minCount := int64(math.Ceil(minSupport * float64(total)))

	// countSets securely counts a batch of candidate itemsets.
	countSets := func(cands []ItemSet) (map[string]int64, error) {
		out := make(map[string]int64, len(cands))
		for _, c := range cands {
			local := make([]int64, len(parties))
			for i, txs := range parties {
				n := int64(0)
				for _, t := range txs {
					if t.contains(c) {
						n++
					}
				}
				local[i] = n
			}
			n, err := r.count(local, rng)
			if err != nil {
				return nil, err
			}
			out[c.key()] = n
		}
		return out, nil
	}

	// Level 1: candidate items = union of items seen locally. (Item ids
	// are assumed public vocabulary, as in market-basket settings.)
	itemSet := map[int64]bool{}
	for _, txs := range parties {
		for _, t := range txs {
			for _, it := range t {
				itemSet[it] = true
			}
		}
	}
	var c1 []ItemSet
	for it := range itemSet {
		c1 = append(c1, ItemSet{it})
	}
	sort.Slice(c1, func(i, j int) bool { return c1[i][0] < c1[j][0] })

	supports := map[string]int64{}
	var frequent []ItemSet
	level := c1
	for len(level) > 0 {
		counts, err := countSets(level)
		if err != nil {
			return nil, nil, err
		}
		var keep []ItemSet
		for _, c := range level {
			if n := counts[c.key()]; n >= minCount {
				supports[c.key()] = n
				keep = append(keep, c)
				frequent = append(frequent, c)
			}
		}
		level = aprioriGen(keep)
	}

	// Rule generation from the securely computed support table.
	var rules []Rule
	for _, fs := range frequent {
		if len(fs) < 2 {
			continue
		}
		full := supports[fs.key()]
		forEachProperSubset(fs, func(ant, cons ItemSet) {
			antSup, ok := supports[ant.key()]
			if !ok || antSup == 0 {
				return
			}
			conf := float64(full) / float64(antSup)
			if conf >= minConfidence {
				rules = append(rules, Rule{
					Antecedent: ant,
					Consequent: cons,
					Support:    float64(full) / float64(total),
					Confidence: conf,
				})
			}
		})
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Support != rules[j].Support {
			return rules[i].Support > rules[j].Support
		}
		return rules[i].Confidence > rules[j].Confidence
	})
	return rules, run.trace(), nil
}

// aprioriGen joins frequent k-itemsets sharing a (k-1)-prefix and prunes
// candidates with an infrequent subset.
func aprioriGen(freq []ItemSet) []ItemSet {
	if len(freq) == 0 {
		return nil
	}
	have := map[string]bool{}
	for _, f := range freq {
		have[f.key()] = true
	}
	k := len(freq[0])
	var out []ItemSet
	for i := 0; i < len(freq); i++ {
		for j := i + 1; j < len(freq); j++ {
			a, b := freq[i], freq[j]
			if !slices.Equal(a[:k-1], b[:k-1]) || a[k-1] >= b[k-1] {
				continue
			}
			cand := make(ItemSet, k+1)
			copy(cand, a)
			cand[k] = b[k-1]
			if allSubsetsFrequent(cand, have) {
				out = append(out, cand)
			}
		}
	}
	return out
}

func allSubsetsFrequent(cand ItemSet, have map[string]bool) bool {
	sub := make(ItemSet, len(cand)-1)
	for skip := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if !have[sub.key()] {
			return false
		}
	}
	return true
}

// forEachProperSubset enumerates every non-empty proper subset of fs as
// (antecedent, consequent).
func forEachProperSubset(fs ItemSet, visit func(ant, cons ItemSet)) {
	n := len(fs)
	for mask := 1; mask < (1<<n)-1; mask++ {
		var ant, cons ItemSet
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				ant = append(ant, fs[i])
			} else {
				cons = append(cons, fs[i])
			}
		}
		visit(ant, cons)
	}
}

// KMeans clusters horizontally partitioned points without revealing them:
// centroids are public; each iteration every party assigns its own points
// locally and contributes per-cluster (sum per dimension, count) through
// secure sums. Only aggregate sums ever leave a party.
//
// points[i] is party i's private point set; all points share a dimension.
// Returns the final centroids and per-cluster global counts. Every ring
// runs over w and the Trace counts them all.
func KMeans(w transport.Transport, points [][][]int64, k, iterations int, rng *rand.Rand) ([][]float64, []int64, *Trace, error) {
	if len(points) < 3 {
		return nil, nil, nil, ErrTooFewParties
	}
	if k < 1 || iterations < 1 {
		return nil, nil, nil, fmt.Errorf("smc: k and iterations must be >= 1")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	dim := -1
	var all int
	for _, ps := range points {
		for _, p := range ps {
			if dim == -1 {
				dim = len(p)
			} else if len(p) != dim {
				return nil, nil, nil, fmt.Errorf("smc: inconsistent point dimension")
			}
			all++
		}
	}
	if all == 0 || dim == -1 {
		return nil, nil, nil, errors.New("smc: no points")
	}

	// Initial centroids: random global coordinate ranges (public info in
	// the CKV setting: the schema/domains are known).
	lo := make([]int64, dim)
	hi := make([]int64, dim)
	for d := 0; d < dim; d++ {
		lo[d], hi[d] = math.MaxInt64, math.MinInt64
	}
	for _, ps := range points {
		for _, p := range ps {
			for d, v := range p {
				lo[d], hi[d] = min(lo[d], v), max(hi[d], v)
			}
		}
	}
	centroids := make([][]float64, k)
	for c := range centroids {
		centroids[c] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			span := hi[d] - lo[d]
			if span <= 0 {
				centroids[c][d] = float64(lo[d])
			} else {
				centroids[c][d] = float64(lo[d] + rng.Int63n(span+1))
			}
		}
	}

	run := borrow(w)
	defer run.release()
	r := run.ring()
	counts := make([]int64, k)
	stride := dim + 1 // per cluster: the count, then the sum per dimension
	for iter := 0; iter < iterations; iter++ {
		// Local assignment + local aggregates.
		local := make([][]int64, len(points)) // party → cluster·stride
		for i, ps := range points {
			local[i] = make([]int64, k*stride)
			for _, p := range ps {
				c := nearest(centroids, p) * stride
				local[i][c]++
				for d, v := range p {
					local[i][c+1+d] += v
				}
			}
		}
		// Secure aggregation of one aggregate across the parties, shifted
		// into [0, m) since sums may be negative.
		secure := func(j int) (int64, error) {
			col := make([]int64, len(points))
			for i := range points {
				col[i] = (local[i][j]%sumModulus + sumModulus) % sumModulus
			}
			return r.count(col, rng)
		}
		for c := 0; c < k; c++ {
			n, err := secure(c * stride)
			if err != nil {
				return nil, nil, nil, err
			}
			counts[c] = n
			if n == 0 {
				continue // empty cluster keeps its centroid
			}
			for d := 0; d < dim; d++ {
				s, err := secure(c*stride + 1 + d)
				if err != nil {
					return nil, nil, nil, err
				}
				// Undo the shift: interpret as signed residue.
				if s > sumModulus/2 {
					s -= sumModulus
				}
				centroids[c][d] = float64(s) / float64(n)
			}
		}
	}
	return centroids, counts, run.trace(), nil
}

// nearest returns the index of the closest centroid (squared Euclidean).
func nearest(centroids [][]float64, p []int64) int {
	best, bestD := 0, math.Inf(1)
	for c, ct := range centroids {
		d := 0.0
		for i, v := range p {
			diff := float64(v) - ct[i]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
