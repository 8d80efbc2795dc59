package anon

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func censusDataset(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	diag := []string{"flu", "asthma", "diabetes", "healthy", "migraine"}
	ds := Dataset{
		QINames: []string{"age", "zip"},
		Hierarchies: []Hierarchy{
			RangeHierarchy{Base: 5, Depth: 4},
			PrefixHierarchy{MaxLen: 5},
		},
	}
	for i := 0; i < n; i++ {
		ds.Records = append(ds.Records, Record{
			QI:        []string{fmt.Sprintf("%d", 20+rng.Intn(60)), fmt.Sprintf("75%03d", rng.Intn(40))},
			Sensitive: diag[rng.Intn(len(diag))],
		})
	}
	return ds
}

func TestPrefixHierarchy(t *testing.T) {
	h := PrefixHierarchy{MaxLen: 5}
	if h.Levels() != 6 {
		t.Errorf("Levels = %d", h.Levels())
	}
	cases := []struct {
		level int
		want  string
	}{
		{0, "75013"}, {1, "7501*"}, {2, "750**"}, {4, "7****"}, {5, "*"}, {9, "*"},
	}
	for _, c := range cases {
		if got := h.Generalize("75013", c.level); got != c.want {
			t.Errorf("level %d = %q, want %q", c.level, got, c.want)
		}
	}
}

func TestRangeHierarchy(t *testing.T) {
	h := RangeHierarchy{Base: 5, Depth: 3}
	if h.Levels() != 5 {
		t.Errorf("Levels = %d", h.Levels())
	}
	cases := []struct {
		level int
		want  string
	}{
		{0, "37"}, {1, "[35-39]"}, {2, "[30-39]"}, {3, "[20-39]"}, {4, "*"},
	}
	for _, c := range cases {
		if got := h.Generalize("37", c.level); got != c.want {
			t.Errorf("level %d = %q, want %q", c.level, got, c.want)
		}
	}
	if got := h.Generalize("not-a-number", 1); got != "*" {
		t.Errorf("non-numeric = %q", got)
	}
}

func TestAnonymizeReachesK(t *testing.T) {
	ds := censusDataset(500, 1)
	for _, k := range []int{2, 5, 10, 25} {
		a, err := Anonymize(ds, Params{K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !VerifyKAnonymous(a.Records, k) {
			t.Errorf("k=%d: published table not k-anonymous", k)
		}
		if a.Suppressed != 0 {
			t.Errorf("k=%d: %d suppressed without budget", k, a.Suppressed)
		}
		if len(a.Records) != len(ds.Records) {
			t.Errorf("k=%d: %d records out of %d", k, len(a.Records), len(ds.Records))
		}
	}
}

func TestInfoLossGrowsWithK(t *testing.T) {
	ds := censusDataset(400, 2)
	var prev float64 = -1
	for _, k := range []int{2, 10, 50, 100} {
		a, err := Anonymize(ds, Params{K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if a.InfoLoss < prev {
			t.Errorf("k=%d: info loss %f below previous %f", k, a.InfoLoss, prev)
		}
		prev = a.InfoLoss
	}
}

func TestLDiversity(t *testing.T) {
	ds := censusDataset(500, 3)
	a, err := Anonymize(ds, Params{K: 3, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !verifyLDiverse(a.Records, 2) {
		t.Error("published table not 2-diverse")
	}
	if !VerifyKAnonymous(a.Records, 3) {
		t.Error("published table not 3-anonymous")
	}
}

func TestSuppressionBudget(t *testing.T) {
	// One extreme outlier forces either full generalization or
	// suppression; with a budget, suppression wins and keeps info loss low.
	ds := censusDataset(200, 4)
	ds.Records = append(ds.Records, Record{QI: []string{"120", "99999"}, Sensitive: "rare"})
	noSup, err := Anonymize(ds, Params{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	withSup, err := Anonymize(ds, Params{K: 10, MaxSuppression: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if withSup.InfoLoss > noSup.InfoLoss {
		t.Errorf("suppression budget worsened info loss: %f > %f", withSup.InfoLoss, noSup.InfoLoss)
	}
	if withSup.Suppressed == 0 {
		t.Log("note: solver found a low-loss node without suppressing (acceptable)")
	}
	if !VerifyKAnonymous(withSup.Records, 10) {
		t.Error("suppressed solution not k-anonymous")
	}
}

func TestAnonymizeValidation(t *testing.T) {
	ds := censusDataset(10, 5)
	if _, err := Anonymize(ds, Params{K: 1}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=1 err = %v", err)
	}
	bad := ds
	bad.Records = append([]Record(nil), ds.Records...)
	bad.Records[0] = Record{QI: []string{"only-one"}, Sensitive: "x"}
	if _, err := Anonymize(bad, Params{K: 2}); err == nil {
		t.Error("mismatched QI arity accepted")
	}
	empty := Dataset{}
	if _, err := Anonymize(empty, Params{K: 2}); err == nil {
		t.Error("dataset without QIs accepted")
	}
}

func TestAnonymizeEmptyRecords(t *testing.T) {
	ds := Dataset{
		QINames:     []string{"age"},
		Hierarchies: []Hierarchy{RangeHierarchy{Base: 5, Depth: 2}},
	}
	a, err := Anonymize(ds, Params{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != 0 {
		t.Error("records out of thin air")
	}
}

func TestNoSolution(t *testing.T) {
	// Two records with distinct sensitive values, l-diversity of 3 can
	// never hold.
	ds := Dataset{
		QINames:     []string{"zip"},
		Hierarchies: []Hierarchy{PrefixHierarchy{MaxLen: 2}},
		Records: []Record{
			{QI: []string{"11"}, Sensitive: "a"},
			{QI: []string{"22"}, Sensitive: "b"},
		},
	}
	if _, err := Anonymize(ds, Params{K: 2, L: 3}); !errors.Is(err, ErrNoSolution) {
		t.Errorf("impossible l-diversity err = %v", err)
	}
}

func TestQuickAnonymizeAlwaysK(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size)%150 + 20
		ds := censusDataset(n, seed)
		a, err := Anonymize(ds, Params{K: 5, MaxSuppression: 0.05})
		if err != nil {
			return false
		}
		return VerifyKAnonymous(a.Records, 5) && len(a.Records)+a.Suppressed == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestClassSizes(t *testing.T) {
	recs := []Record{
		{QI: []string{"a"}, Sensitive: "s"},
		{QI: []string{"a"}, Sensitive: "s"},
		{QI: []string{"b"}, Sensitive: "s"},
	}
	sizes := ClassSizes(recs)
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 2 {
		t.Errorf("sizes = %v", sizes)
	}
}

// verifyLDiverse is the l-diversity oracle: each class has at least l
// distinct sensitive values.
func verifyLDiverse(records []Record, l int) bool {
	classes := map[string]map[string]bool{}
	for _, r := range records {
		key := strings.Join(r.QI, "\x00")
		if classes[key] == nil {
			classes[key] = map[string]bool{}
		}
		classes[key][r.Sensitive] = true
	}
	for _, s := range classes {
		if len(s) < l {
			return false
		}
	}
	return true
}
