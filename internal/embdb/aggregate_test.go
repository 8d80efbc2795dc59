package embdb

import (
	"errors"
	"math"
	"testing"

	"pds/internal/mcu"
)

// loadSales builds a table: region (str), amount (int), with an index on
// region.
func loadSales(t *testing.T) *DB {
	t.Helper()
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	if _, err := db.CreateTable("sales", NewSchema(
		Column{"region", Str}, Column{"amount", Int},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("sales", "region"); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		region string
		amount int64
	}{
		{"north", 10}, {"north", 20}, {"south", 5},
		{"north", 30}, {"south", 15}, {"east", 100},
	}
	for _, r := range rows {
		if _, err := db.Insert("sales", Row{StrVal(r.region), IntVal(r.amount)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAggregateGlobal(t *testing.T) {
	db := loadSales(t)
	cases := []struct {
		f    AggFunc
		want float64
	}{
		{Count, 6}, {Sum, 180}, {Avg, 30}, {Min, 5}, {Max, 100},
	}
	for _, c := range cases {
		res, err := db.Aggregate(AggQuery{Table: "sales", Func: c.f, Col: "amount"})
		if err != nil {
			t.Fatalf("%v: %v", c.f, err)
		}
		if len(res) != 1 || res[0].Value != c.want {
			t.Errorf("%v = %+v, want %v", c.f, res, c.want)
		}
		if res[0].Group != nil {
			t.Errorf("%v: global group should be nil", c.f)
		}
	}
}

func TestAggregateGroupBy(t *testing.T) {
	db := loadSales(t)
	res, err := db.Aggregate(AggQuery{Table: "sales", Func: Sum, Col: "amount", GroupBy: "region"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"north": 60, "south": 20, "east": 100}
	if len(res) != 3 {
		t.Fatalf("groups = %d: %+v", len(res), res)
	}
	for _, r := range res {
		g := string(r.Group.(StrVal))
		if r.Value != want[g] {
			t.Errorf("sum(%s) = %v, want %v", g, r.Value, want[g])
		}
	}
	// First-seen order.
	if string(res[0].Group.(StrVal)) != "north" || string(res[2].Group.(StrVal)) != "east" {
		t.Errorf("group order = %+v", res)
	}
}

func TestAggregateWhereUsesIndex(t *testing.T) {
	db := loadSales(t)
	alloc := db.alloc
	db.Flush()
	alloc.Chip().ResetStats()
	res, err := db.Aggregate(AggQuery{
		Table: "sales", Func: Avg, Col: "amount",
		Where: &Cond{Table: "sales", Col: "region", Val: StrVal("north")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Value != 20 || res[0].Count != 3 {
		t.Errorf("avg north = %+v", res)
	}
}

func TestAggregateWhereWithoutIndexFallsBackToScan(t *testing.T) {
	db := loadSales(t)
	// amount has no index: a scan must still answer.
	res, err := db.Aggregate(AggQuery{
		Table: "sales", Func: Count,
		Where: &Cond{Table: "sales", Col: "amount", Val: IntVal(10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Count != 1 {
		t.Errorf("count amount=10 = %+v", res)
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	db := NewDB(bigAlloc(), mcu.NewArena(0))
	db.CreateTable("empty", NewSchema(Column{"v", Int}))
	res, err := db.Aggregate(AggQuery{Table: "empty", Func: Sum, Col: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty aggregate = %+v", res)
	}
}

func TestAggregateMinMaxNaNOnEmptyGroup(t *testing.T) {
	// A WHERE that matches nothing yields no groups, not NaN rows.
	db := loadSales(t)
	res, err := db.Aggregate(AggQuery{
		Table: "sales", Func: Min, Col: "amount",
		Where: &Cond{Table: "sales", Col: "region", Val: StrVal("mars")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("no-match aggregate = %+v", res)
	}
	// Direct state check: result on empty state is NaN for Min/Max.
	var st aggState
	if !math.IsNaN(st.result(Min)) || !math.IsNaN(st.result(Max)) {
		t.Error("empty Min/Max should be NaN")
	}
	if st.result(Avg) != 0 || st.result(AggFunc(99)) == st.result(AggFunc(99)) {
		// NaN != NaN for the unknown func.
		t.Error("empty Avg should be 0 and unknown func NaN")
	}
}

func TestAggregateValidation(t *testing.T) {
	db := loadSales(t)
	if _, err := db.Aggregate(AggQuery{Table: "nope", Func: Count}); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("bad table err = %v", err)
	}
	if _, err := db.Aggregate(AggQuery{Table: "sales", Func: Sum, Col: "ghost"}); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad column err = %v", err)
	}
	if _, err := db.Aggregate(AggQuery{Table: "sales", Func: Sum, Col: "region"}); err == nil {
		t.Error("string measure accepted")
	}
	if _, err := db.Aggregate(AggQuery{Table: "sales", Func: Count, GroupBy: "ghost"}); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad groupby err = %v", err)
	}
	if _, err := db.Aggregate(AggQuery{
		Table: "sales", Func: Count,
		Where: &Cond{Table: "other", Col: "x", Val: IntVal(1)},
	}); err == nil {
		t.Error("cross-table where accepted")
	}
	if _, err := db.Aggregate(AggQuery{
		Table: "sales", Func: Count,
		Where: &Cond{Table: "sales", Col: "ghost", Val: IntVal(1)},
	}); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("bad where column err = %v", err)
	}
}

func TestAggFuncString(t *testing.T) {
	for f, want := range map[AggFunc]string{
		Count: "count", Sum: "sum", Avg: "avg", Min: "min", Max: "max",
		AggFunc(9): "AggFunc(9)",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", int(f), f.String())
		}
	}
}
