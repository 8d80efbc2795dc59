package smc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pds/internal/netsim"
)

// splitTransactions deals a global transaction database across n parties.
func splitTransactions(txs []Transaction, n int) [][]Transaction {
	out := make([][]Transaction, n)
	for i, t := range txs {
		out[i%n] = append(out[i%n], t)
	}
	return out
}

func TestAssociationRulesBasic(t *testing.T) {
	// Classic toy basket data: {1,2} appear together in most baskets.
	var txs []Transaction
	for i := 0; i < 80; i++ {
		txs = append(txs, Transaction{1, 2, int64(10 + i%3)})
	}
	for i := 0; i < 20; i++ {
		txs = append(txs, Transaction{3})
	}
	rules, tr, err := MineAssociationRules(netsim.New(), splitTransactions(txs, 4), 0.5, 0.8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Messages == 0 {
		t.Error("no secure-sum traffic recorded")
	}
	// Expect 1→2 and 2→1 with support 0.8 and confidence 1.0.
	found := 0
	for _, r := range rules {
		if len(r.Antecedent) == 1 && len(r.Consequent) == 1 &&
			((r.Antecedent[0] == 1 && r.Consequent[0] == 2) ||
				(r.Antecedent[0] == 2 && r.Consequent[0] == 1)) {
			found++
			if math.Abs(r.Support-0.8) > 1e-9 || math.Abs(r.Confidence-1.0) > 1e-9 {
				t.Errorf("rule %v→%v support=%.2f conf=%.2f", r.Antecedent, r.Consequent, r.Support, r.Confidence)
			}
		}
	}
	if found != 2 {
		t.Errorf("expected both 1↔2 rules, got %d in %v", found, rules)
	}
}

func TestAssociationRulesMatchCentralizedApriori(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var txs []Transaction
	for i := 0; i < 150; i++ {
		var tx Transaction
		for item := int64(0); item < 8; item++ {
			if rng.Float64() < 0.35 {
				tx = append(tx, item)
			}
		}
		if len(tx) == 0 {
			tx = Transaction{0}
		}
		txs = append(txs, tx)
	}
	minSup, minConf := 0.15, 0.6
	rules, _, err := MineAssociationRules(netsim.New(), splitTransactions(txs, 5), minSup, minConf, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Centralized reference: brute-force all rules.
	support := func(s ItemSet) float64 {
		n := 0
		for _, t := range txs {
			if t.contains(s) {
				n++
			}
		}
		return float64(n) / float64(len(txs))
	}
	want := map[string]bool{}
	var enumerate func(items ItemSet, start int64)
	union := func(a, b ItemSet) ItemSet {
		out := append(ItemSet{}, a...)
		out = append(out, b...)
		return out
	}
	enumerate = func(items ItemSet, start int64) {
		for it := start; it < 8; it++ {
			cur := append(append(ItemSet{}, items...), it)
			if support(cur) >= minSup {
				if len(cur) >= 2 {
					forEachProperSubset(cur, func(ant, cons ItemSet) {
						if support(union(ant, cons))/support(ant) >= minConf {
							want[ant.key()+"|"+cons.key()] = true
						}
					})
				}
				enumerate(cur, it+1)
			}
		}
	}
	enumerate(nil, 0)
	got := map[string]bool{}
	for _, r := range rules {
		got[r.Antecedent.key()+"|"+r.Consequent.key()] = true
	}
	if len(got) != len(want) {
		t.Fatalf("distributed found %d rules, centralized %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing rule %q", k)
		}
	}
}

func TestAssociationRulesValidation(t *testing.T) {
	parties := splitTransactions([]Transaction{{1}}, 3)
	if _, _, err := MineAssociationRules(netsim.New(), parties[:2], 0.5, 0.5, nil); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("2 parties err = %v", err)
	}
	if _, _, err := MineAssociationRules(netsim.New(), parties, 0, 0.5, nil); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("support 0 err = %v", err)
	}
	if _, _, err := MineAssociationRules(netsim.New(), parties, 0.5, 1.5, nil); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("confidence 1.5 err = %v", err)
	}
	empty := [][]Transaction{nil, nil, nil}
	if _, _, err := MineAssociationRules(netsim.New(), empty, 0.5, 0.5, nil); !errors.Is(err, ErrNoTransactions) {
		t.Errorf("empty err = %v", err)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Two well-separated blobs split across 4 parties.
	blob := func(cx, cy int64, n int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{cx + rng.Int63n(11) - 5, cy + rng.Int63n(11) - 5}
		}
		return out
	}
	a := blob(0, 0, 60)
	b := blob(1000, 1000, 60)
	parties := make([][][]int64, 4)
	for i, p := range append(a, b...) {
		parties[i%4] = append(parties[i%4], p)
	}
	centroids, counts, tr, err := KMeans(netsim.New(), parties, 2, 8, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Messages == 0 {
		t.Error("no secure-sum traffic")
	}
	if counts[0]+counts[1] != 120 {
		t.Errorf("counts = %v", counts)
	}
	// One centroid near (0,0), the other near (1000,1000).
	near := func(c []float64, x, y float64) bool {
		return math.Abs(c[0]-x) < 50 && math.Abs(c[1]-y) < 50
	}
	ok := (near(centroids[0], 0, 0) && near(centroids[1], 1000, 1000)) ||
		(near(centroids[1], 0, 0) && near(centroids[0], 1000, 1000))
	if !ok {
		t.Errorf("centroids = %v", centroids)
	}
}

func TestKMeansNegativeCoordinates(t *testing.T) {
	parties := [][][]int64{
		{{-100, -100}, {-90, -110}},
		{{-105, -95}},
		{{-95, -105}},
	}
	centroids, _, _, err := KMeans(netsim.New(), parties, 1, 4, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if centroids[0][0] > -90 || centroids[0][0] < -110 {
		t.Errorf("centroid = %v (negative sums mishandled?)", centroids[0])
	}
}

func TestKMeansValidation(t *testing.T) {
	pts := [][][]int64{{{1, 2}}, {{3, 4}}, {{5, 6}}}
	if _, _, _, err := KMeans(netsim.New(), pts[:2], 2, 3, nil); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("2 parties err = %v", err)
	}
	if _, _, _, err := KMeans(netsim.New(), pts, 0, 3, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, _, err := KMeans(netsim.New(), pts, 2, 0, nil); err == nil {
		t.Error("iterations=0 accepted")
	}
	bad := [][][]int64{{{1, 2}}, {{3}}, {{5, 6}}}
	if _, _, _, err := KMeans(netsim.New(), bad, 1, 1, nil); err == nil {
		t.Error("inconsistent dims accepted")
	}
	empty := [][][]int64{nil, nil, nil}
	if _, _, _, err := KMeans(netsim.New(), empty, 1, 1, nil); err == nil {
		t.Error("no points accepted")
	}
}

func TestItemSetHelpers(t *testing.T) {
	tx := Transaction{1, 5, 9}
	if !tx.contains(ItemSet{1, 9}) || tx.contains(ItemSet{1, 2}) {
		t.Error("contains wrong")
	}
	if (ItemSet{1, 2}).key() == (ItemSet{2, 1}).key() {
		t.Error("key collision for distinct ordered sets")
	}
	// aprioriGen: {1,2},{1,3},{2,3} → {1,2,3}.
	out := aprioriGen([]ItemSet{{1, 2}, {1, 3}, {2, 3}})
	if len(out) != 1 || len(out[0]) != 3 {
		t.Errorf("aprioriGen = %v", out)
	}
	// Prune: {1,2},{1,3} without {2,3} must not emit {1,2,3}.
	out = aprioriGen([]ItemSet{{1, 2}, {1, 3}})
	if len(out) != 0 {
		t.Errorf("prune failed: %v", out)
	}
}
