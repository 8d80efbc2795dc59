package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWindowSamplesOnBoundaries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	w := NewWindow(r, 100*time.Millisecond, 8)

	if n := w.Advance(50_000_000); n != 0 {
		t.Fatalf("pre-boundary Advance took %d samples", n)
	}
	c.Add(3)
	if n := w.Advance(100_000_000); n != 1 {
		t.Fatalf("first boundary took %d samples, want 1", n)
	}
	// Same instant again: no double sample.
	if n := w.Advance(100_000_000); n != 0 {
		t.Fatalf("repeated Advance resampled")
	}
	c.Add(5)
	// Jump over three boundaries at once: one sample each.
	if n := w.Advance(400_000_000); n != 3 {
		t.Fatalf("triple boundary took %d samples, want 3", n)
	}
	if got := w.Samples(); got != 4 {
		t.Fatalf("Samples() = %d, want 4", got)
	}
	v := w.View()
	if v.Held != 4 {
		t.Fatalf("Held = %d, want 4", v.Held)
	}
	// Oldest sample saw 3, newest 8: windowed delta is 5 over 300ms →
	// 16.666/s → 16666 milli.
	rr := v.Rate("reqs")
	if rr.Delta != 5 {
		t.Fatalf("windowed delta = %d, want 5", rr.Delta)
	}
	if rr.RateMilli != 16666 {
		t.Fatalf("RateMilli = %d, want 16666", rr.RateMilli)
	}
}

func TestWindowRingEvictsAndSkipsFarJumps(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	w := NewWindow(r, 10*time.Millisecond, 4)
	for i := 0; i < 10; i++ {
		c.Inc()
		w.Advance(int64(i+1) * 10_000_000)
	}
	v := w.View()
	if v.Held != 4 || v.Samples != 10 {
		t.Fatalf("Held/Samples = %d/%d, want 4/10", v.Held, v.Samples)
	}
	// A jump far past the ring capacity samples only the last ring-full.
	taken := w.Advance(10_000_000_000)
	if taken != 4 {
		t.Fatalf("far jump took %d samples, want ring capacity 4", taken)
	}
	// And the next small advance continues from a boundary-aligned next.
	if n := w.Advance(10_000_000_000 + 9_000_000); n != 0 {
		t.Fatalf("sub-boundary advance after jump took %d samples", n)
	}
	if n := w.Advance(10_010_000_000); n != 1 {
		t.Fatalf("next boundary after jump took %d samples, want 1", n)
	}
}

func TestWindowDigestDeterministicAndSensitive(t *testing.T) {
	run := func(extra bool) string {
		r := NewRegistry()
		c := r.Counter("reqs")
		h := r.Histogram("lat", latBounds())
		w := NewWindow(r, 100*time.Millisecond, 8)
		for i := 0; i < 20; i++ {
			c.Inc()
			h.Observe(int64(i * 7 % 900))
			w.Advance(int64(i+1) * 60_000_000)
		}
		if extra {
			c.Inc()
		}
		w.SampleNow(1_300_000_000)
		return w.Digest()
	}
	a, b := run(false), run(false)
	if a != b {
		t.Fatalf("same-seed digests differ:\n%s\n%s", a, b)
	}
	if c := run(true); c == a {
		t.Fatal("digest blind to a diverging counter")
	}
}

func TestWindowQuantilesRolling(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", latBounds())
	w := NewWindow(r, 100*time.Millisecond, 2)
	// Epoch 1: slow traffic, then sample.
	for i := 0; i < 100; i++ {
		h.Observe(1800)
	}
	w.Advance(100_000_000)
	// Epoch 2: fast traffic only. The two-slot window's delta covers
	// exactly the fast epoch.
	for i := 0; i < 100; i++ {
		h.Observe(4)
	}
	w.Advance(200_000_000)
	v := w.View()
	q, ok := v.Quantile("lat")
	if !ok {
		t.Fatal("no windowed quantile for lat")
	}
	if q.Count != 100 {
		t.Fatalf("windowed count = %d, want 100 (fast epoch only)", q.Count)
	}
	if q.P99 != 5 {
		t.Fatalf("windowed p99 = %d, want 5 — lifetime slow epoch leaked in", q.P99)
	}
	// Lifetime quantile still sees both epochs.
	if got, _ := h.Quantile(0.99); got != 2000 {
		t.Fatalf("lifetime p99 = %d, want 2000", got)
	}
}

func TestWindowEmptyAndSingleSampleViews(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(9)
	w := NewWindow(r, time.Second, 4)
	v := w.View()
	if v.Samples != 0 || v.Held != 0 || len(v.Rates) != 0 {
		t.Fatalf("empty window view not empty: %+v", v)
	}
	// One sample: deltas measure from zero (run started inside the window).
	w.SampleNow(500_000_000)
	v = w.View()
	if v.Held != 1 {
		t.Fatalf("Held = %d, want 1", v.Held)
	}
	if rr := v.Rate("reqs"); rr.Delta != 9 {
		t.Fatalf("single-sample delta = %d, want 9", rr.Delta)
	}
	if rr := v.Rate("reqs"); rr.RateMilli != 18000 {
		t.Fatalf("single-sample RateMilli = %d, want 18000 (9 over 500ms)", rr.RateMilli)
	}
}

func TestWindowHooks(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("ram")
	w := NewWindow(r, 100*time.Millisecond, 4)
	var beforeAt []int64
	w.OnBeforeSample(func(atNS int64) {
		beforeAt = append(beforeAt, atNS)
		g.Set(atNS / 1_000_000) // gauge refreshed just-in-time
	})
	var pairs int
	var firstPrevNil bool
	w.OnSample(func(cur, prev *WindowSample) {
		pairs++
		if pairs == 1 {
			firstPrevNil = prev == nil
		}
		if prev != nil && cur.Seq != prev.Seq+1 {
			t.Errorf("non-consecutive samples: %d after %d", cur.Seq, prev.Seq)
		}
	})
	w.Advance(100_000_000)
	w.Advance(300_000_000)
	if len(beforeAt) != 3 || beforeAt[0] != 100_000_000 {
		t.Fatalf("before hook at %v", beforeAt)
	}
	if pairs != 3 || !firstPrevNil {
		t.Fatalf("after hook pairs=%d firstPrevNil=%v", pairs, firstPrevNil)
	}
	if got := w.View().Gauges; len(got) != 1 || got[0].Name != "ram" || got[0].Value != 300 {
		t.Fatalf("gauges at sample time = %+v, want ram = 300", got)
	}
}

func TestRegistryAlerts(t *testing.T) {
	r := NewRegistry()
	r.Alert(500, 4200, "slo_burn", "class", "interactive")
	r.Alert(900, 5100, "slo_burn", "class", "batch")
	alerts := r.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("Alerts() = %d records, want 2", len(alerts))
	}
	if alerts[0].Name != Name("slo_burn", "class", "interactive") || alerts[0].ValueMilli != 4200 {
		t.Fatalf("first alert = %+v", alerts[0])
	}
	if got := r.CounterValue(MetricAlerts, "alert", "slo_burn"); got != 2 {
		t.Fatalf("alert counter = %d, want 2", got)
	}
	snap := r.Snapshot()
	if len(snap.Alerts) != 2 || snap.Alerts[0].AtNS != 500 {
		t.Fatalf("snapshot alerts = %+v", snap.Alerts)
	}
	// Alerts survive a snapshot merge (the fleet path).
	dst := NewRegistry()
	dst.MergeSnapshot(snap)
	if got := len(dst.Alerts()); got != 2 {
		t.Fatalf("merged alerts = %d, want 2", got)
	}
	// Registries that never alert keep alert-free snapshots (omitempty
	// protects the golden byte-identity tests).
	clean := NewRegistry()
	clean.Counter("x").Inc()
	b, err := clean.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "alerts") {
		t.Fatalf("alert-free snapshot leaked an alerts field:\n%s", b)
	}
}

func TestMergeSnapshotMatchesMerge(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("c", "k", "v").Add(7)
		r.Gauge("g").Set(11)
		r.Histogram("h", latBounds()).Observe(42)
		return r
	}
	a := NewRegistry()
	a.Merge(mk())
	b := NewRegistry()
	b.MergeSnapshot(mk().Snapshot())
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if string(aj) != string(bj) {
		t.Fatalf("Merge and MergeSnapshot disagree:\n%s\n%s", aj, bj)
	}
}

// The serve loop advances the window while scrape handlers read views —
// the race detector must stay quiet.
func TestWindowConcurrentAdvanceAndView(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	w := NewWindow(r, time.Millisecond, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.Inc()
			w.Advance(int64(i+1) * 1_000_000)
		}
		close(stop)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := w.View()
				_ = v.Rate("reqs")
				_ = w.Digest()
			}
		}()
	}
	wg.Wait()
	if got := w.Samples(); got != 2000 {
		t.Fatalf("Samples() = %d, want 2000", got)
	}
}
