package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// TestBenchmarkJSONMatchesTables keeps the declared contract and the
// harness's own tables one vocabulary, inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	byName := map[string]workload{}
	seen := map[string]bool{}
	for _, w := range workloads(false) {
		if len(w.Why()) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name(), len(w.Why()))
		}
		byName[w.Name()] = w
		seen[w.Name()] = true
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness gates %d", len(doc.Workloads), len(gated))
	}
	for i, name := range gated {
		w, ok := byName[name]
		if !ok {
			t.Fatalf("gated workload %q is not in the table", name)
		}
		if doc.Workloads[i].Name != name || doc.Workloads[i].Why != w.Why() {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, name, w.Why())
		}
	}

	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the harness %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		if j := doc.PerLayer[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, j, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeEveryWorkload runs both passes of every workload at one tiny
// episode: every declared name must come out exactly once with a finite
// value, and every correctness check must pass.
func TestSmokeEveryWorkload(t *testing.T) {
	ses := &session{opt: options{seed: 1, measured: true, traced: true, tiny: true}}
	for _, w := range workloads(true) {
		res, err := ses.runWorkload(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if !res.Correct {
			t.Errorf("%s: not correct: %v", w.Name(), res.Violations)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name(), res.Attempted, res.Failed)
		}
		check := func(defs []metricDef, vals map[string]value) {
			if len(vals) != len(defs) {
				t.Errorf("%s: %d values for %d declared names", w.Name(), len(vals), len(defs))
			}
			for _, d := range defs {
				v, ok := vals[d.Name]
				if !ok {
					t.Errorf("%s: %s missing", w.Name(), d.Name)
				} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s: %s = %v %q", w.Name(), d.Name, v.Value, v.Unit)
				}
			}
		}
		check(endToEnd, res.EndToEnd)
		check(perLayer, res.PerLayer)
		for _, d := range endToEnd {
			if res.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name(), d.Name, res.EndToEnd[d.Name].Value)
			}
		}
	}
}

// goldenDigests pins the generated inputs of seed 1. A change here means
// every recorded result measured different work and must be re-measured.
var goldenDigests = map[string]string{
	"serve-steady":   "7fa9ff31338be21dcb17a90e70ec983afbd4a16f3e68ef1fe3499f283155ddc4",
	"serve-churn":    "14ee0dec3c03235f47bfed159656ac9d1b23aa893f68bade76d863605f05b767",
	"serve-overload": "0c74e3b98a2017562f2b72d525ebf4c23445232ff8b92229e5fb566400a42d7e",
	"token-query":    "5a464f5bd4b4b019b9a663d78d51e3942de0eb98b6394663dd6305dfbb7a1e25",
	"gquery-clean":   "8d4eaa95e4513b4e513169ba2cbd5b4069e1257e17690443f8a93f25547fd82b",
	"gquery-lossy":   "da0aa35c0117bb7a2b28e7cc47ec0f45cdb725e22e95d5742eb5413ebe6becc4",
	"gquery-tcp":     "8f064832f115930692d8868cc57785e254547b430823bc3ab2e9bade97ccb240",
}

func TestInputDigestsGolden(t *testing.T) {
	for _, w := range workloads(false) {
		digest := func(seed int64) string {
			inst, err := w.Setup(seed)
			if err != nil {
				t.Fatalf("%s: %v", w.Name(), err)
			}
			defer inst.Close()
			return inst.InputDigest()
		}
		if got := digest(1); got != goldenDigests[w.Name()] {
			t.Errorf("%s: seed 1 input digest %s, golden %s", w.Name(), got, goldenDigests[w.Name()])
		}
		if _, ok := w.(*tokenWorkload); ok {
			continue // a second full token load would double the test's time
		}
		if digest(2) == goldenDigests[w.Name()] {
			t.Errorf("%s: seed 2 generates the inputs of seed 1", w.Name())
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {1, 10}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := mean([]int64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

// TestQuartiles checks against Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

func TestSlowdownScalesThroughput(t *testing.T) {
	nominal := speedSample{alu: aluNominal, mem: memNominal, alloc: allocNominal}
	if got := nominal.slowdown(); got != 1 {
		t.Errorf("slowdown at nominal speed = %v, want 1", got)
	}
	half := speedSample{alu: 2 * aluNominal, mem: memNominal, alloc: allocNominal}
	if got := half.slowdown(); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowdown with the integer kernel at half speed = %v, want 2", got)
	}
	// Two blocks of the same work, the second on a machine twice as slow:
	// scaled, both read the same rate.
	p := &pass{
		episodes: []epOut{{ops: 1, liveHeap: 1}},
		blocks: []block{
			{ops: 1000, cpu: time.Second, slowdown: 1},
			{ops: 1000, cpu: 2 * time.Second, slowdown: 2},
		},
	}
	m := newMetricSet()
	endToEndMetrics(p, m)
	if v := m.vals["wall_ops_per_s"]; v.Value != 1000 || v.Q1 != 1000 || v.Q3 != 1000 {
		t.Errorf("wall_ops_per_s = %+v, want 1000 in every block", v)
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] has children a [10,40] and b [50,70]; a has child c
	// [20,30]; d [90,120] overruns its parent and is clipped to it.
	spans := []span{
		{Name: "op", Start: 0, End: 100},
		{Name: "a", Start: 10, End: 40, Parent: 1},
		{Name: "b", Start: 50, End: 70, Parent: 1},
		{Name: "c", Start: 20, End: 30, Parent: 2},
		{Name: "d", Start: 90, End: 120, Parent: 1},
	}
	want := map[string]int64{"op": 100 - 30 - 20 - 10, "a": 20, "b": 20, "c": 10, "d": 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var off *recorder
	off.end(off.begin("x", 0, 0)) // tracing off: no-ops, no panic
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "wall_ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "allocs_per_op", Better: "lower", Bound: 0.02}
	v := func(x, q1, q3 float64) value { return value{Value: x, N: 1, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		name  string
		d     metricDef
		a, b  value
		exact bool
		want  string
	}{
		{"within bound", higher, v(100, 98, 102), v(95, 93, 97), false, verdictOK},
		{"slower", higher, v(100, 98, 102), v(85, 83, 87), false, verdictRegressed},
		{"faster", higher, v(100, 98, 102), v(120, 118, 122), false, verdictImproved},
		{"noisy", higher, v(100, 90, 110), v(95, 85, 105), false, verdictUnresolved},
		{"noisy but disjoint", higher, v(100, 90, 110), v(200, 180, 220), false, verdictImproved},
		{"more allocations", lower, v(100, 100, 100), v(103, 103, 103), false, verdictRegressed},
		{"exact equal", lower, v(64, 0, 0), v(64, 0, 0), true, verdictOK},
		{"exact worse", lower, v(64, 0, 0), v(64.001, 0, 0), true, verdictRegressed},
		{"exact better", lower, v(64, 0, 0), v(63, 0, 0), true, verdictImproved},
		{"many episodes narrow the median", higher, value{Value: 100, N: 100, Q1: 90, Q3: 110}, value{Value: 85, N: 100, Q1: 75, Q3: 95}, false, verdictRegressed},
	} {
		if got, _ := judge(c.d, c.a, c.b, c.exact); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	mk := func(seed int64, digest string) *report {
		return &report{Seed: seed, Workloads: []*workloadResult{{Name: "w", InputDigest: digest, Episodes: 3,
			EndToEnd: map[string]value{"virt_p99_us": {Value: 5}}}}}
	}
	var out bytes.Buffer
	if _, err := compareReports(&out, mk(1, "x"), mk(2, "x")); err == nil {
		t.Error("reports of different seeds compared")
	}
	if _, err := compareReports(&out, mk(1, "x"), mk(1, "y")); err == nil {
		t.Error("reports of different inputs compared")
	}
	b := mk(1, "x")
	b.Workloads[0].EndToEnd["virt_p99_us"] = value{Value: 6}
	if regressed, err := compareReports(&out, mk(1, "x"), b); err != nil || !regressed {
		t.Errorf("a worse virtual p99 did not regress: %v %v", regressed, err)
	}
}
