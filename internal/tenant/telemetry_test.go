package tenant

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pds/internal/obs"
)

func TestTopKBoundedAndDeterministic(t *testing.T) {
	s := newTopK(3)
	s.add("a", 100)
	s.add("b", 50)
	s.add("c", 10)
	s.add("d", 200) // evicts c (min), inherits its count
	if len(s.slots) != 3 {
		t.Fatalf("sketch grew to %d entries, cap 3", len(s.slots))
	}
	top := s.top()
	if top[0].Tenant != "d" || top[0].Value != 210 || top[0].Err != 10 {
		t.Fatalf("top[0] = %+v, want d/210/err 10", top[0])
	}
	if top[1].Tenant != "a" || top[2].Tenant != "b" {
		t.Fatalf("ranking = %+v", top)
	}
	// Monitored keys keep exact error bounds on re-credit.
	s.add("d", 5)
	if e := s.slots[s.find("d")]; e.count != 215 || e.err != 10 {
		t.Fatalf("re-credit entry = %+v", e)
	}
}

// refTopK is the sketch as a map of monitored keys, the reference the
// slot array must rank alike.
type refTopK struct {
	k int
	m map[string]*[2]int64 // count, err
}

func (t *refTopK) add(key string, inc int64) {
	if e, ok := t.m[key]; ok {
		e[0] += inc
		return
	}
	if len(t.m) < t.k {
		t.m[key] = &[2]int64{inc, 0}
		return
	}
	var minKey string
	var min *[2]int64
	for k, e := range t.m {
		if min == nil || e[0] < min[0] || (e[0] == min[0] && k < minKey) {
			minKey, min = k, e
		}
	}
	delete(t.m, minKey)
	t.m[key] = &[2]int64{min[0] + inc, min[0]}
}

// The slot-array sketch evicts, bounds and ranks exactly as a map of
// monitored keys does, ties included, on skewed streams with many equal
// counts.
func TestTopKMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 200; it++ {
		k := 1 + rng.Intn(8)
		s, ref := newTopK(k), &refTopK{k: k, m: map[string]*[2]int64{}}
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("t%02d", int(30*rng.Float64()*rng.Float64()))
			inc := int64(1 + rng.Intn(3))
			s.add(key, inc)
			ref.add(key, inc)
		}
		got := s.top()
		if len(got) != len(ref.m) {
			t.Fatalf("iteration %d: %d monitored keys, reference %d", it, len(got), len(ref.m))
		}
		for _, h := range got {
			e := ref.m[h.Tenant]
			if e == nil || h.Value != e[0] || h.Err != e[1] {
				t.Fatalf("iteration %d: %+v, reference %v", it, h, e)
			}
		}
	}
}

func TestAttributionPrometheusText(t *testing.T) {
	a := NewAttribution()
	a.AddService("tenant-0007", 5000)
	a.AddService("tenant-0001", 9000)
	a.AddShed("tenant-0002")
	a.AddReopenIO("tenant-0003", 42)
	a.AddReopenIO("tenant-0004", 0) // no-op credit
	out := a.PrometheusText()
	for _, want := range []string{
		`tenant_hot_service_ns{rank="0",tenant="tenant-0001"} 9000`,
		`tenant_hot_service_ns{rank="1",tenant="tenant-0007"} 5000`,
		`tenant_hot_sheds{rank="0",tenant="tenant-0002"} 1`,
		`tenant_hot_reopen_io{rank="0",tenant="tenant-0003"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "tenant-0004") {
		t.Error("zero-credit tenant leaked into the sketch")
	}
}

func TestBurnTrackerFiresAlert(t *testing.T) {
	reg := obs.NewRegistry()
	w := obs.NewWindow(reg, 0, 0)
	bt := NewBurnTracker(reg)
	bt.Attach(w)
	// Window 1: 100 kv requests, 10 shed → bad fraction 10%, budget 1%
	// → burn 10000 milli, well past the 4000 threshold.
	admit := reg.Counter(MetricClassRequests, "class", "kv", "decision", "admit")
	shed := reg.Counter(MetricClassRequests, "class", "kv", "decision", "shed")
	admit.Add(90)
	shed.Add(10)
	w.SampleNow(1_000_000)
	burns := bt.Burns()
	if burns[0].Class != "kv" || burns[0].BurnMilli != 10000 {
		t.Fatalf("kv burn = %+v, want 10000 milli", burns[0])
	}
	if burns[0].Alerts != 1 {
		t.Fatalf("kv alerts = %d, want 1", burns[0].Alerts)
	}
	alerts := reg.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("registry alerts = %+v", alerts)
	}
	if alerts[0].Name != obs.Name(AlertSLOBurn, "class", "kv") || alerts[0].ValueMilli != 10000 {
		t.Fatalf("alert = %+v", alerts[0])
	}
	if got := reg.GaugeValue(MetricBurn, "class", "kv"); got != 10000 {
		t.Fatalf("burn gauge = %d", got)
	}
	// Window 2: healthy traffic only — burn drops to zero, no new alert.
	admit.Add(100)
	w.SampleNow(2_000_000)
	burns = bt.Burns()
	if burns[0].BurnMilli != 0 || burns[0].Alerts != 1 {
		t.Fatalf("healthy window burn = %+v", burns[0])
	}
}

func TestBurnTrackerSlowRequestsBurnBudget(t *testing.T) {
	reg := obs.NewRegistry()
	w := obs.NewWindow(reg, 0, 0)
	bt := NewBurnTracker(reg) // target ~16.4ms
	bt.Attach(w)
	reg.Counter(MetricClassRequests, "class", "search", "decision", "admit").Add(100)
	h := reg.Histogram(MetricLatency, LatencyBounds(), "class", "search")
	for i := 0; i < 95; i++ {
		h.Observe(1_000_000) // 1ms, under target
	}
	for i := 0; i < 5; i++ {
		h.Observe(100_000_000) // 100ms, over target
	}
	w.SampleNow(1_000_000)
	burns := bt.Burns()
	var search ClassBurn
	for _, b := range burns {
		if b.Class == "search" {
			search = b
		}
	}
	if search.Bad != 5 || search.Total != 100 {
		t.Fatalf("search burn inputs = %+v, want bad 5 / total 100", search)
	}
	// 5% bad on a 1% budget → burn 5000 milli ≥ default threshold 4000.
	if search.BurnMilli != 5000 || search.Alerts != 1 {
		t.Fatalf("search burn = %+v, want 5000 milli and one alert", search)
	}
}

func TestServeObservedTelemetryDeterministic(t *testing.T) {
	cfg := ServeConfig{Tenants: 60, Arrivals: 600, RatePerSec: 6000, Seed: 7}
	run := func() *ServeReport {
		rep, err := Serve(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.WindowDigest != b.WindowDigest {
		t.Fatalf("same-seed window digests differ:\n%s\n%s", a.WindowDigest, b.WindowDigest)
	}
	if a.WindowSamples != b.WindowSamples || a.WindowSamples == 0 {
		t.Fatalf("window samples %d vs %d", a.WindowSamples, b.WindowSamples)
	}
	if a.AlertsFired != b.AlertsFired {
		t.Fatalf("alerts fired %d vs %d", a.AlertsFired, b.AlertsFired)
	}
	if len(a.Hot.ServiceNS) == 0 {
		t.Fatal("no heavy hitters attributed")
	}
	for i := range a.Hot.ServiceNS {
		if a.Hot.ServiceNS[i] != b.Hot.ServiceNS[i] {
			t.Fatalf("heavy-hitter rankings diverge at %d: %+v vs %+v",
				i, a.Hot.ServiceNS[i], b.Hot.ServiceNS[i])
		}
	}
	// A different seed must move the digest.
	cfg.Seed = 8
	if c := run(); c.WindowDigest == a.WindowDigest {
		t.Fatal("window digest blind to the seed")
	}
}

// Every series a serve run registers must render to valid exposition —
// the cross-codebase half of the Prometheus hardening regression.
func TestServeSeriesNamesValid(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := Serve(ServeConfig{Tenants: 30, Arrivals: 200, RatePerSec: 4000, Seed: 3}, reg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snap.Histograms {
		names = append(names, h.Name)
	}
	if len(names) == 0 {
		t.Fatal("serve registered no series")
	}
	for _, n := range names {
		if err := obs.ValidSeriesName(n); err != nil {
			t.Errorf("serve registered an invalid series: %v", err)
		}
	}
}

// The race gate: a serve run advancing the window while scrape-shaped
// readers hammer PrometheusText and View concurrently.
func TestServeObservedConcurrentScrape(t *testing.T) {
	cfg := ServeConfig{Tenants: 50, Arrivals: 500, RatePerSec: 5000, Seed: 11}
	reg := obs.NewRegistry()
	tel := NewTelemetry(cfg, reg)
	done := make(chan struct{})
	// Scrapers start reading at the first window sample: before it the
	// run may not have registered a series yet, and an empty exposition
	// is then correct, not a failure.
	sampled := make(chan struct{})
	var once sync.Once
	tel.Window.OnSample(func(_, _ *obs.WindowSample) { once.Do(func() { close(sampled) }) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-sampled:
			case <-done:
				return
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if out := tel.PrometheusText(); len(out) == 0 {
					t.Error("empty exposition mid-run")
					return
				}
				v := tel.View()
				_ = v.Window.Rate(MetricRequests)
				_ = v.Status
			}
		}()
	}
	rep, err := ServeObserved(cfg, reg, tel, nil)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowSamples == 0 {
		t.Fatal("run took no window samples")
	}
	st := tel.Status()
	if st.Running || !st.OK || st.Done != cfg.Arrivals {
		t.Fatalf("final status = %+v", st)
	}
	if tel.View().WindowDigest != rep.WindowDigest {
		t.Fatal("view digest diverges from report digest")
	}
}
