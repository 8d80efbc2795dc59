package obs

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"pds/internal/race"
)

// regProg interprets a byte string as registry operations, two bytes an
// operation (opcode, argument). Series names come from a small set whose
// kind (counter, gauge or histogram) and histogram bounds depend on shift,
// so a program run after a reset may register a name under another kind
// or other bounds than before it. Span operations address handles in
// spans, which starts with the handles of an earlier program.
type regProg struct {
	r     *Registry
	shift int
	spans []*Span
	ctxs  []SpanContext
}

var progBounds = [2][]int64{{1, 10, 100}, {5, 50}}

func (p *regProg) run(prog []byte) {
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%10, int(prog[i+1])
		name := "m" + strconv.Itoa(arg%3)
		label := strconv.Itoa(arg % 2)
		kind := (arg%3 + p.shift) % 3
		span := func() *Span {
			if len(p.spans) == 0 {
				return nil
			}
			return p.spans[arg%len(p.spans)]
		}
		switch op {
		case 0, 1, 2: // count into the name's series, whatever its kind
			switch kind {
			case 0:
				p.r.Counter(name, "l", label).Add(int64(arg))
			case 1:
				p.r.Gauge(name, "l", label).Set(int64(arg))
			default:
				p.r.Histogram(name, progBounds[(arg+p.shift)%2&1], "l", label).Observe(int64(arg))
			}
		case 3:
			p.spans = append(p.spans, p.r.Tracer().Start("s"+label, span()))
		case 4:
			span().Annotate("k"+strconv.Itoa(arg%3), label)
		case 5:
			sp := p.r.Tracer().StartRemote("remote", span().Context())
			p.spans = append(p.spans, sp)
			p.ctxs = append(p.ctxs, sp.Context())
		case 6:
			if len(p.ctxs) > 0 {
				p.r.Tracer().Event("ev", p.ctxs[arg%len(p.ctxs)])
			}
		case 7:
			span().End()
			p.r.Clock().Advance(time.Duration(arg))
		case 8:
			o := NewRegistry()
			o.Counter("merged", "l", label).Add(int64(arg))
			sp := o.Tracer().Start("merged-span", nil)
			sp.Annotate("from", label)
			sp.End()
			o.Alert(int64(arg), 1, "merged-alert")
			p.r.Merge(o)
		case 9:
			p.r.Alert(int64(arg), int64(arg)*10, "alert", "l", label)
		}
	}
}

// A reset registry is a fresh one: after the same operations, its
// snapshot, critical path, alerts and clock equal those of a registry
// that never saw what came before the reset, and no span handle or
// context minted before the reset resolves or writes after it. The fresh
// twin replays the pre-reset program on a registry of its own, so it
// holds handles of the same shape that address another tracer.
func FuzzRegistryResetEqualsFresh(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 4, 0, 5, 0, 6, 0, 7, 3, 8, 1, 9, 2}, []byte{0, 1, 4, 0, 5, 1, 6, 0, 3, 2, 7, 0}, byte(1))
	f.Add([]byte{2, 2, 1, 1, 0, 0, 3, 0, 3, 1}, []byte{2, 2, 1, 1, 0, 0, 4, 1, 7, 1}, byte(0))
	f.Add([]byte{3, 0, 5, 0, 5, 1, 6, 1}, []byte{6, 0, 6, 1, 5, 2, 7, 2, 8, 0}, byte(2))
	f.Fuzz(func(t *testing.T, pre, post []byte, shift byte) {
		if len(pre) > 512 || len(post) > 512 {
			return
		}
		recycled := &regProg{r: NewRegistry()}
		recycled.run(pre)
		recycled.r.Reset()
		recycled.shift = int(shift % 3)
		recycled.run(post)

		other := &regProg{r: NewRegistry()}
		other.run(pre)
		fresh := &regProg{r: NewRegistry(), shift: int(shift % 3), spans: other.spans, ctxs: other.ctxs}
		fresh.run(post)

		got, err := recycled.r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reset registry's snapshot differs from a fresh one's\n got %s\nwant %s", got, want)
		}
		if g, w := recycled.r.Tracer().CriticalPath(), fresh.r.Tracer().CriticalPath(); g.TotalNS != w.TotalNS || g.WorkNS != w.WorkNS || len(g.Phases) != len(w.Phases) {
			t.Fatalf("critical path %+v, fresh %+v", g, w)
		}
		if g, w := recycled.r.Clock().Now(), fresh.r.Clock().Now(); g != w {
			t.Fatalf("clock %v, fresh %v", g, w)
		}
	})
}

// What a caller holds from a recycled registry is its own: a snapshot, a
// Spans copy and a critical path taken before the reset read the same
// after the registry is reset and reused.
func TestResetLeavesExportsAlone(t *testing.T) {
	r := NewRegistry()
	root := r.Tracer().Start("root", nil)
	ph := r.Tracer().Start("phase", root)
	ph.Annotate("k", "v")
	r.Clock().Advance(10)
	ph.End()
	root.End()
	r.Counter("c", "l", "x").Inc()
	snap, spans, cp := r.Snapshot(), r.Tracer().Spans(), r.Tracer().CriticalPath()
	before, _ := snap.JSON()

	r.Reset()
	again := r.Tracer().Start("other", nil)
	again.Annotate("k", "w")
	r.Tracer().Start("phase2", again).End()
	r.Counter("c", "l", "x").Add(5)
	r.Tracer().CriticalPath()

	if after, _ := snap.JSON(); !bytes.Equal(before, after) {
		t.Errorf("snapshot changed under a reset:\n%s\n%s", before, after)
	}
	if spans[1].Attrs["k"] != "v" || spans[1].Name != "phase" {
		t.Errorf("Spans copy changed under a reset: %+v", spans)
	}
	if cp.Phases[0].Name != "phase" || cp.TotalNS != 10 {
		t.Errorf("critical path changed under a reset: %+v", cp)
	}
}

// Re-registering a series after a reset reuses its metric: a reset
// registry runs the same series again without allocating, and its
// tracer's span and attribute lists and critical-path walk keep their
// memory.
func TestResetRegistryReusesSeriesAndSpans(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := NewRegistry()
	names := []string{Name("fam", "kind", "a"), Name("fam", "kind", "b"), "plain"}
	round := func() {
		for _, n := range names {
			r.Counter(n).Inc()
		}
		r.Gauge("g").Set(3)
		r.Histogram("h", []int64{1, 2}).Observe(2)
		tr := r.Tracer()
		root := tr.Start("root", nil)
		phase := tr.Start("phase", root)
		for i := 0; i < 8; i++ {
			sp := tr.StartRemote("xfer", phase.Context())
			sp.Annotate("i", "x")
			tr.Event("ack", sp.Context())
			sp.End()
		}
		phase.End()
		root.End()
		tr.CriticalPath()
		r.Reset()
	}
	round()
	// Span handles come from a slab of 32 (one allocation per 32 spans
	// opened) and the critical path allocates its Phases.
	if got := testing.AllocsPerRun(20, round); got > 2 {
		t.Errorf("a reset registry's round: %.1f allocs, want <= 2", got)
	}
}
