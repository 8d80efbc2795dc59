package netsim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pds/internal/obs"
)

// kindStats reads one kind's traffic from the observer's netsim_kind_*
// families.
func kindStats(reg *obs.Registry, kind string) Stats {
	return Stats{
		Messages: reg.CounterValue(MetricKindMessages, "kind", kind),
		Bytes:    reg.CounterValue(MetricKindBytes, "kind", kind),
	}
}

func TestSendCounts(t *testing.T) {
	n := New()
	reg := obs.NewRegistry()
	n.SetObserver(reg)
	n.Send(Envelope{From: "a", To: "b", Kind: "x", Payload: make([]byte, 10)})
	n.Send(Envelope{From: "a", To: "b", Kind: "y", Payload: make([]byte, 5)})
	s := n.Stats()
	if s.Messages != 2 || s.Bytes != 15 {
		t.Errorf("stats = %+v", s)
	}
	if ks := kindStats(reg, "x"); ks.Messages != 1 || ks.Bytes != 10 {
		t.Errorf("kind x = %+v", ks)
	}
	if ks := kindStats(reg, "missing"); ks.Messages != 0 {
		t.Errorf("missing kind = %+v", ks)
	}
}

func TestSendReturnsEnvelope(t *testing.T) {
	n := New()
	e := n.Send(Envelope{From: "a", To: "b", Payload: []byte("p")})
	if e.From != "a" || string(e.Payload) != "p" {
		t.Errorf("returned envelope = %+v", e)
	}
}

func TestTapObservesAll(t *testing.T) {
	n := New()
	var seen []Envelope
	n.Tap(func(e Envelope) { seen = append(seen, e) })
	n.Send(Envelope{Kind: "a"})
	n.Send(Envelope{Kind: "b"})
	if len(seen) != 2 || seen[0].Kind != "a" || seen[1].Kind != "b" {
		t.Errorf("tap saw %v", seen)
	}
}

func TestReset(t *testing.T) {
	n := New()
	n.Send(Envelope{Kind: "x", Payload: []byte("abc")})
	n.Reset()
	if s := n.Stats(); s.Messages != 0 || s.Bytes != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestStatsTime(t *testing.T) {
	m := CostModel{Latency: 10 * time.Millisecond, Bandwidth: 1000}
	s := Stats{Messages: 2, Bytes: 500}
	want := 20*time.Millisecond + 500*time.Millisecond
	if got := s.Time(m); got != want {
		t.Errorf("Time = %v, want %v", got, want)
	}
	// Zero bandwidth: latency only.
	if got := s.Time(CostModel{Latency: time.Millisecond}); got != 2*time.Millisecond {
		t.Errorf("latency-only Time = %v", got)
	}
}

func TestStatsString(t *testing.T) {
	if got := (Stats{Messages: 3, Bytes: 9}).String(); got != "msgs=3 bytes=9" {
		t.Errorf("String = %q", got)
	}
}

func TestConcurrentSends(t *testing.T) {
	n := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				n.Send(Envelope{Kind: "k", Payload: []byte{1}})
			}
		}()
	}
	wg.Wait()
	if s := n.Stats(); s.Messages != 1600 || s.Bytes != 1600 {
		t.Errorf("concurrent stats = %+v", s)
	}
}

func TestConcurrentSendsAcrossKinds(t *testing.T) {
	// Distinct kinds land on distinct observer series; readers may observe
	// mid-flight totals without tripping the race detector.
	n := New()
	reg := obs.NewRegistry()
	n.SetObserver(reg)
	kinds := []string{"tuple", "chunk", "partial", "merge"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		kind := kinds[i%len(kinds)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				n.Send(Envelope{Kind: kind, Payload: []byte{1, 2}})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			n.Stats()
			kindStats(reg, "chunk")
		}
	}()
	wg.Wait()
	<-done
	var total int64
	for _, k := range kinds {
		ks := kindStats(reg, k)
		if ks.Messages != 400 || ks.Bytes != 800 {
			t.Errorf("kind %s = %+v", k, ks)
		}
		total += ks.Messages
	}
	if s := n.Stats(); s.Messages != total || s.Messages != 1600 {
		t.Errorf("total = %+v, per-kind sum = %d", n.Stats(), total)
	}
}

func TestConcurrentTappedSends(t *testing.T) {
	n := New()
	var observed atomic.Int64
	n.Tap(func(Envelope) { observed.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				n.Send(Envelope{Kind: "k"})
			}
		}()
	}
	wg.Wait()
	if observed.Load() != 800 {
		t.Errorf("tap observed %d of 800 sends", observed.Load())
	}
}
