package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// exercise drives a registry through a fixed serial script.
func exercise(r *Registry) {
	root := r.Tracer().Start("run", nil)
	for i := 0; i < 100; i++ {
		r.Counter("frames_total", "kind", "tuple").Add(2)
		r.Counter("frames_total", "kind", "ack").Inc()
		r.Counter("plain_total").Inc()
		r.Gauge("occupancy_bytes").Set(int64(i * 64))
		r.Histogram("chunk_size", []int64{8, 64, 512}).Observe(int64(i))
	}
	child := r.Tracer().Start("phase", root)
	r.Clock().Advance(7 * time.Millisecond)
	child.Annotate("kind", "fold")
	child.End()
	root.End()
}

func TestSerialSnapshotsByteIdentical(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	exercise(a)
	exercise(b)
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("identical serial runs produced different snapshots:\n%s\n---\n%s", ja, jb)
	}
	var decoded Snapshot
	if err := json.Unmarshal(ja, &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(decoded.Counters) == 0 || len(decoded.Spans) == 0 {
		t.Fatalf("snapshot unexpectedly empty: %+v", decoded)
	}
}

func TestCounterTotalsExactUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, each = 32, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hot_total")
			h := r.Histogram("lat", []int64{1, 10, 100})
			for i := 0; i < each; i++ {
				c.Inc()
				r.Gauge("g").Add(1)
				h.Observe(int64(i % 128))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("hot_total"); got != workers*each {
		t.Fatalf("lost updates: got %d want %d", got, workers*each)
	}
	if got := r.GaugeValue("g"); got != workers*each {
		t.Fatalf("gauge lost updates: got %d want %d", got, workers*each)
	}
	if got := r.Histogram("lat", nil).Count(); got != workers*each {
		t.Fatalf("histogram lost observations: got %d want %d", got, workers*each)
	}
}

func TestNameCanonicalization(t *testing.T) {
	a := Name("m", "b", "2", "a", "1")
	b := Name("m", "a", "1", "b", "2")
	if a != b || a != `m{a="1",b="2"}` {
		t.Fatalf("label order not canonical: %q vs %q", a, b)
	}
	if Name("m") != "m" {
		t.Fatalf("unlabeled name mangled: %q", Name("m"))
	}
}

// A trailing key without a value takes the empty one — and Name only
// reads its labels: it used to append that "" to the variadic slice, which
// for Name(f, xs...) is the caller's own backing array.
func TestNameOddLabelsLeavesCallerSliceAlone(t *testing.T) {
	backing := []string{"b", "2", "a", "sentinel"}
	labels := backing[:3] // spare capacity: an append lands on "sentinel"
	if got, want := Name("m", labels...), `m{a="",b="2"}`; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	if backing[3] != "sentinel" {
		t.Fatalf("Name wrote %q into the caller's backing array", backing[3])
	}
	if got, want := Name("m", "solo"), `m{solo=""}`; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	// Equal keys keep their argument order, as the insertion sort under
	// sort.Slice kept them.
	if got, want := Name("m", "k", "2", "a", "0", "k", "1"), `m{a="0",k="2",k="1"}`; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
}

// A name held by one kind cannot be taken by another, and the panic names
// the series.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "k", "v")
	defer func() {
		if got, want := recover(), `obs: dual{k="v"} already registered with a different kind`; got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	r.Gauge("dual", "k", "v")
}

func TestMergeAddsCountersAndRebasesSpans(t *testing.T) {
	parent, child := NewRegistry(), NewRegistry()
	parent.Counter("x_total").Add(5)
	ps := parent.Tracer().Start("outer", nil)
	ps.End()

	child.Counter("x_total").Add(3)
	child.Counter("y_total", "k", "v").Add(2)
	child.Histogram("h", []int64{10}).Observe(4)
	cs := child.Tracer().Start("inner", nil)
	cc := child.Tracer().Start("leaf", cs)
	cc.End()
	cs.End()

	parent.Merge(child)
	if got := parent.CounterValue("x_total"); got != 8 {
		t.Fatalf("merged counter: got %d want 8", got)
	}
	if got := parent.CounterValue("y_total", "k", "v"); got != 2 {
		t.Fatalf("merged labeled counter: got %d want 2", got)
	}
	if got := parent.Histogram("h", nil).Count(); got != 1 {
		t.Fatalf("merged histogram count: got %d want 1", got)
	}
	spans := parent.Snapshot().Spans
	if len(spans) != 3 {
		t.Fatalf("span count after merge: got %d want 3", len(spans))
	}
	// Imported parent/child linkage must survive the rebase.
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["leaf"].Parent != byName["inner"].ID {
		t.Fatalf("rebased child lost its parent: %+v", spans)
	}
	ids := map[int]bool{}
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate span id %d after merge", sp.ID)
		}
		ids[sp.ID] = true
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(snap.Histograms))
	}
	hp := snap.Histograms[0]
	want := []int64{2, 2, 2} // <=10, <=100, overflow
	for i, bp := range hp.Buckets {
		if bp.Count != want[i] {
			t.Fatalf("bucket %d: got %d want %d (%+v)", i, bp.Count, want[i], hp.Buckets)
		}
	}
	if hp.Sum != 1+10+11+100+101+5000 || hp.Count != 6 {
		t.Fatalf("histogram sum/count wrong: %+v", hp)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", "kind", "tuple").Add(3)
	r.Gauge("ram_bytes").Set(4096)
	r.Histogram("sz", []int64{10}).Observe(7)
	out := r.Prometheus()
	for _, want := range []string{
		"# TYPE msgs_total counter",
		`msgs_total{kind="tuple"} 3`,
		"# TYPE ram_bytes gauge",
		"ram_bytes 4096",
		`sz_bucket{le="10"} 1`,
		`sz_bucket{le="+Inf"} 1`,
		"sz_sum 7",
		"sz_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, out)
		}
	}
}

func TestSimClockDrivesSpanDurations(t *testing.T) {
	r := NewRegistry()
	sp := r.Tracer().Start("xfer", nil)
	r.Clock().Advance(42 * time.Millisecond)
	sp.End()
	spans := r.Snapshot().Spans
	if len(spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(spans))
	}
	if d := spans[0].EndNS - spans[0].StartNS; d != int64(42*time.Millisecond) {
		t.Fatalf("span duration %d, want %d", d, int64(42*time.Millisecond))
	}
	// Negative advances must not move the clock backwards.
	before := r.Clock().Now()
	if r.Clock().Advance(-time.Second) != before {
		t.Fatal("negative advance moved the clock")
	}
}

func TestExplicitTimeSpansIndependentOfClock(t *testing.T) {
	r := NewRegistry()
	root := r.Tracer().Start("sched", nil)
	// The shared clock stays at 0 while the caller lays out a two-node
	// schedule on explicit timelines.
	a := r.Tracer().StartAt("node-a", root, 10*time.Millisecond)
	a.EndAt(30 * time.Millisecond)
	b := r.Tracer().StartAt("node-b", root, 20*time.Millisecond)
	b.EndAt(5 * time.Millisecond) // before start: clamped to start
	root.End()
	spans := r.Snapshot().Spans
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if sp := byName["node-a"]; sp.StartNS != int64(10*time.Millisecond) || sp.EndNS != int64(30*time.Millisecond) {
		t.Fatalf("node-a laid out at [%d,%d]", sp.StartNS, sp.EndNS)
	}
	if sp := byName["node-b"]; sp.EndNS != sp.StartNS {
		t.Fatalf("end before start not clamped: [%d,%d]", sp.StartNS, sp.EndNS)
	}
	if now := r.Clock().Now(); now != 0 {
		t.Fatalf("explicit-time spans moved the shared clock to %v", now)
	}
}
