package netsim

import (
	"fmt"
	"sync"
	"testing"
)

func mkEnv(i int, kind string) Envelope {
	return Envelope{From: "a", To: "b", Kind: kind, Payload: []byte(fmt.Sprintf("payload-%04d", i))}
}

func TestHashUniformDeterministicAndSpread(t *testing.T) {
	a := HashUniform(1, []byte("x"))
	if a != HashUniform(1, []byte("x")) {
		t.Error("HashUniform not deterministic")
	}
	if a == HashUniform(2, []byte("x")) || a == HashUniform(1, []byte("y")) {
		t.Error("HashUniform ignores inputs")
	}
	// Length prefixing must separate field boundaries.
	if HashUniform(1, []byte("ab"), []byte("c")) == HashUniform(1, []byte("a"), []byte("bc")) {
		t.Error("field boundaries not separated")
	}
	// Crude uniformity: the mean of many draws is near 1/2.
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		u := HashUniform(7, []byte(fmt.Sprintf("%d", i)))
		if u < 0 || u >= 1 {
			t.Fatalf("draw %f outside [0,1)", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("mean of draws = %f, want ~0.5", mean)
	}
}

func TestFaultPlaneReproducibleFromSeed(t *testing.T) {
	plan := FaultPlan{Seed: 42, Default: FaultSpec{Drop: 0.3, Duplicate: 0.2, Delay: 0.1, Reorder: 0.1}}
	run := func() ([]string, FaultStats) {
		fp := NewFaultPlane(plan)
		var got []string
		for i := 0; i < 200; i++ {
			for _, e := range fp.Transmit(mkEnv(i, "tuple")) {
				got = append(got, string(e.Payload))
			}
		}
		fp.Flush(func(e Envelope) { got = append(got, "late:"+string(e.Payload)) })
		return got, fp.Stats()
	}
	a, as := run()
	b, bs := run()
	if as != bs {
		t.Fatalf("stats diverge: %+v vs %+v", as, bs)
	}
	if as.Total() == 0 {
		t.Fatal("no faults injected at 70% combined rate over 200 envelopes")
	}
	if len(a) != len(b) {
		t.Fatalf("delivery streams diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d diverges: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestFaultPlaneSeedChangesSchedule(t *testing.T) {
	spec := FaultSpec{Drop: 0.5}
	a := NewFaultPlane(FaultPlan{Seed: 1, Default: spec})
	b := NewFaultPlane(FaultPlan{Seed: 2, Default: spec})
	differs := false
	for i := 0; i < 100; i++ {
		if len(a.Transmit(mkEnv(i, "k"))) != len(b.Transmit(mkEnv(i, "k"))) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 1 and 2 produced identical drop schedules")
	}
}

func TestFaultPlaneDropAndDuplicate(t *testing.T) {
	fp := NewFaultPlane(FaultPlan{Seed: 3, Default: FaultSpec{Drop: 1}})
	if out := fp.Transmit(mkEnv(0, "k")); len(out) != 0 {
		t.Errorf("drop=1 delivered %d copies", len(out))
	}
	fp = NewFaultPlane(FaultPlan{Seed: 3, Default: FaultSpec{Duplicate: 1}})
	if out := fp.Transmit(mkEnv(0, "k")); len(out) != 2 {
		t.Errorf("duplicate=1 delivered %d copies, want 2", len(out))
	}
}

func TestFaultPlaneDelayUntilFlush(t *testing.T) {
	fp := NewFaultPlane(FaultPlan{Seed: 4, Default: FaultSpec{Delay: 1}})
	for i := 0; i < 5; i++ {
		if out := fp.Transmit(mkEnv(i, "k")); len(out) != 0 {
			t.Fatalf("delayed envelope delivered early")
		}
	}
	var late []Envelope
	fp.Flush(func(e Envelope) { late = append(late, e) })
	if len(late) != 5 {
		t.Fatalf("flush released %d envelopes, want 5", len(late))
	}
	// A second flush is empty.
	fp.Flush(func(Envelope) { t.Fatal("second flush released envelopes") })
	if st := fp.Stats(); st.Delayed != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFaultPlaneReorderSwapsNeighbours(t *testing.T) {
	// Reorder only the first envelope: it must surface right after the
	// second one of the same kind.
	plan := FaultPlan{Seed: 0, PerKind: map[string]FaultSpec{}}
	fp := NewFaultPlane(plan)
	// Find a seed where envelope 0 reorders and envelope 1 is clean.
	var seed int64
	for seed = 0; ; seed++ {
		fp = NewFaultPlane(FaultPlan{Seed: seed, Default: FaultSpec{Reorder: 0.5}})
		u0 := HashUniform(seed, []byte("netsim-fault"), []byte("k"), []byte("a"), []byte("b"), mkEnv(0, "k").Payload)
		u1 := HashUniform(seed, []byte("netsim-fault"), []byte("k"), []byte("a"), []byte("b"), mkEnv(1, "k").Payload)
		if u0 < 0.5 && u1 >= 0.5 {
			break
		}
	}
	if out := fp.Transmit(mkEnv(0, "k")); len(out) != 0 {
		t.Fatalf("reordered envelope delivered immediately")
	}
	out := fp.Transmit(mkEnv(1, "k"))
	if len(out) != 2 || string(out[0].Payload) != "payload-0001" || string(out[1].Payload) != "payload-0000" {
		t.Fatalf("swap order wrong: %v", out)
	}
}

func TestFaultPlanePerKindSchedules(t *testing.T) {
	fp := NewFaultPlane(FaultPlan{
		Seed:    5,
		Default: FaultSpec{},
		PerKind: map[string]FaultSpec{"lossy": {Drop: 1}},
	})
	if out := fp.Transmit(mkEnv(0, "lossy")); len(out) != 0 {
		t.Error("per-kind drop not applied")
	}
	if out := fp.Transmit(mkEnv(0, "clean")); len(out) != 1 {
		t.Error("default spec should be clean")
	}
}

func TestNetworkDeliverWithAndWithoutFaults(t *testing.T) {
	n := New()
	var got int
	n.Deliver(Envelope{Kind: "k", Payload: []byte("x")}, func(Envelope) { got++ })
	if got != 1 {
		t.Fatalf("clean deliver invoked rcv %d times", got)
	}
	if n.Stats().Messages != 1 {
		t.Error("deliver did not count the send")
	}
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 1, Default: FaultSpec{Drop: 1}}))
	n.Deliver(Envelope{Kind: "k", Payload: []byte("y")}, func(Envelope) { got++ })
	if got != 1 {
		t.Error("dropped envelope reached rcv")
	}
	if n.Stats().Messages != 2 {
		t.Error("dropped envelope not counted as sent")
	}
	if n.Faults() == nil {
		t.Error("Faults() lost the plane")
	}
	n.SetFaults(nil)
	n.Deliver(Envelope{Kind: "k", Payload: []byte("z")}, func(Envelope) { got++ })
	if got != 2 {
		t.Error("clearing the plane did not restore clean delivery")
	}
}

// Regression for the historical Reset/Send race footgun: Reset used to be
// documented as unsafe to call concurrently with Send. It now swaps a
// fresh accounting epoch, so hammering all three concurrently must be
// race-clean and leave consistent counters (run with -race).
func TestResetConcurrentWithSend(t *testing.T) {
	n := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				n.Send(Envelope{Kind: "k", Payload: []byte{1, 2, 3}})
				n.Stats()
				n.KindStats("k")
			}
		}()
	}
	for i := 0; i < 200; i++ {
		n.Reset()
	}
	close(stop)
	wg.Wait()
	n.Reset()
	if s := n.Stats(); s.Messages != 0 || s.Bytes != 0 {
		t.Errorf("stats after final reset = %+v", s)
	}
	n.Send(Envelope{Kind: "k", Payload: []byte{1}})
	if s := n.Stats(); s.Messages != 1 || s.Bytes != 1 {
		t.Errorf("post-reset epoch inconsistent: %+v", s)
	}
}
