package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pds/internal/obs"
	"pds/internal/race"
)

func TestFrameRoundTrip(t *testing.T) {
	sctx := obs.SpanContext{Trace: 9, Span: 41}
	wire := EncodeFrame(7, 3, false, sctx, []byte("hello"))
	seq, attempt, ack, ctx, payload, ok := DecodeFrame(wire)
	if !ok || seq != 7 || attempt != 3 || ack || ctx != sctx || string(payload) != "hello" {
		t.Fatalf("round trip = seq=%d attempt=%d ack=%v ctx=%+v payload=%q ok=%v", seq, attempt, ack, ctx, payload, ok)
	}
	// Any single-byte corruption must be caught by the tag.
	for i := range wire {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x01
		if _, _, _, _, _, ok := DecodeFrame(bad); ok {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
	if _, _, _, _, _, ok := DecodeFrame(wire[:frameOverhead-1]); ok {
		t.Error("truncated frame accepted")
	}
}

func TestTransferCleanWire(t *testing.T) {
	n := New()
	l := NewLink(n, Reliability{})
	var got []string
	err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("p1")}, func(e Envelope) {
		got = append(got, string(e.Payload))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "p1" {
		t.Fatalf("delivered %v", got)
	}
	st := l.Stats()
	if st.Transfers != 1 || st.Retransmits != 0 || st.Acks != 1 || st.Backoff != 0 {
		t.Errorf("clean-wire stats = %+v", st)
	}
	// One data frame + one ack on the wire.
	if s := n.Stats(); s.Messages != 2 {
		t.Errorf("wire messages = %d, want 2", s.Messages)
	}
}

func TestTransferRecoversFromDrops(t *testing.T) {
	n := New()
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 11, Default: FaultSpec{Drop: 0.4}}))
	l := NewLink(n, Reliability{MaxRetries: 30})
	var got []string
	for i := 0; i < 50; i++ {
		payload := fmt.Sprintf("msg-%02d", i)
		err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte(payload)}, func(e Envelope) {
			got = append(got, string(e.Payload))
		})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50 exactly-once payloads", len(got))
	}
	for i, p := range got {
		if p != fmt.Sprintf("msg-%02d", i) {
			t.Fatalf("delivery %d = %q out of order", i, p)
		}
	}
	st := l.Stats()
	if st.Retransmits == 0 {
		t.Error("40% drop caused no retransmissions")
	}
	if st.Backoff == 0 {
		t.Error("retransmissions accrued no simulated backoff")
	}
}

func TestTransferAbsorbsDuplicates(t *testing.T) {
	n := New()
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 12, Default: FaultSpec{Duplicate: 1}}))
	l := NewLink(n, Reliability{})
	delivered := 0
	if err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("x")}, func(Envelope) {
		delivered++
	}); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("duplicated frame delivered %d times", delivered)
	}
}

func TestTransferSurvivesDelayViaRetry(t *testing.T) {
	// Delay withholds copies until the flush barrier; the retry (whose
	// frame hashes differently) gets through, and the flushed copy is
	// deduplicated by Accept.
	n := New()
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 13, Default: FaultSpec{Delay: 0.5}}))
	l := NewLink(n, Reliability{MaxRetries: 40})
	delivered := 0
	for i := 0; i < 30; i++ {
		err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte(fmt.Sprintf("d%02d", i))}, func(Envelope) {
			delivered++
		})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	if delivered != 30 {
		t.Fatalf("delivered %d of 30", delivered)
	}
	n.FlushFaults(func(e Envelope) {
		l.Accept(e, func(Envelope) { delivered++ })
	})
	if delivered != 30 {
		t.Errorf("flush re-delivered already-acked frames: %d", delivered)
	}
}

// A link keeps a transfer's state only while the transfer is under way.
// Acks that surface after their transfer returned — the re-ack of a
// duplicated frame, withheld by a reorder and released by the next
// transfer's ack — are counted and dropped, so after any number of lossy
// transfers and the flush barrier the link holds no per-transfer state.
func TestLinkRetainsNoTransferState(t *testing.T) {
	n := New()
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 15, Default: FaultSpec{Drop: 0.1, Duplicate: 0.2, Delay: 0.1, Reorder: 0.2}}))
	l := NewLink(n, Reliability{MaxRetries: 40})
	for i := 0; i < 300; i++ {
		err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte(fmt.Sprintf("m%03d", i))}, func(Envelope) {})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	n.FlushFaults(func(e Envelope) { l.Accept(e, nil) })
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) != 0 {
		t.Errorf("the link retains %d transfers after all 300 returned", len(l.pending))
	}
}

func TestTransferExhaustsRetriesTyped(t *testing.T) {
	n := New()
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 14, Default: FaultSpec{Drop: 1}}))
	l := NewLink(n, Reliability{MaxRetries: 3})
	err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("x")}, nil)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	var re *RetryError
	if !errors.As(err, &re) || re.Attempts != 4 || re.Kind != "k" {
		t.Errorf("retry error detail = %+v", re)
	}
	if st := l.Stats(); st.Retransmits != 3 {
		t.Errorf("retransmits = %d, want 3", st.Retransmits)
	}
}

func TestTransferTreatsCorruptionAsLoss(t *testing.T) {
	// A tap cannot mutate the frame in flight, so simulate corruption by
	// feeding a mangled frame to the receive path directly: the tag must
	// reject it without delivering.
	n := New()
	l := NewLink(n, Reliability{})
	wire := EncodeFrame(1, 0, false, obs.SpanContext{}, []byte("x"))
	wire[frameOverhead/2] ^= 0xFF
	l.Accept(Envelope{Kind: "k", Payload: wire}, func(Envelope) {
		t.Error("corrupted frame delivered")
	})
	if st := l.Stats(); st.TagFailures != 1 {
		t.Errorf("tag failures = %d, want 1", st.TagFailures)
	}
}

func TestConcurrentTransfers(t *testing.T) {
	// A parallel token fleet shares one link: deliveries must be
	// exactly-once per payload and the counters race-clean.
	n := New()
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 15, Default: FaultSpec{Drop: 0.2, Duplicate: 0.2}}))
	l := NewLink(n, Reliability{MaxRetries: 40})
	var mu sync.Mutex
	seen := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				payload := fmt.Sprintf("w%d-%02d", w, i)
				err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte(payload)}, func(e Envelope) {
					mu.Lock()
					seen[string(e.Payload)]++
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("transfer %s: %v", payload, err)
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != 200 {
		t.Fatalf("distinct deliveries = %d, want 200", len(seen))
	}
	for p, c := range seen {
		if c != 1 {
			t.Errorf("payload %s delivered %d times", p, c)
		}
	}
}

func TestTransferRoutesReleasedFramesToOwner(t *testing.T) {
	// Reorder withholds a frame and releases it during the NEXT transmit of
	// its kind — under a concurrent fleet, usually a different transfer's
	// Deliver. The link must dispatch by the frame's own sequence number, so
	// each transfer's callback sees exactly its own payload (regression:
	// released frames used to ride the in-flight transfer's closure and were
	// silently attributed to the wrong consumer).
	n := New()
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 16, Default: FaultSpec{Reorder: 0.4, Duplicate: 0.1}}))
	l := NewLink(n, Reliability{MaxRetries: 40})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var misrouted []string
	delivered := 0
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				payload := fmt.Sprintf("w%d-%02d", w, i)
				err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte(payload)}, func(e Envelope) {
					mu.Lock()
					delivered++
					if string(e.Payload) != payload {
						misrouted = append(misrouted, fmt.Sprintf("%s got %q", payload, e.Payload))
					}
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("transfer %s: %v", payload, err)
				}
			}
		}()
	}
	wg.Wait()
	n.FlushFaults(func(e Envelope) { l.Accept(e, nil) })
	if len(misrouted) > 0 {
		t.Fatalf("%d frames delivered through the wrong transfer, e.g. %s", len(misrouted), misrouted[0])
	}
	if delivered != 200 {
		t.Errorf("delivered %d of 200 exactly-once payloads", delivered)
	}
}

func TestReceiveDispatchesBySequence(t *testing.T) {
	// White-box pin of the routing contract behind the test above: a data
	// frame surfacing in ANY Deliver context routes to the deliver callback
	// registered for its own sequence number, duplicates are absorbed, and
	// ack frames mark their sequence acked for whichever transfer owns it —
	// an ack for a sequence no transfer awaits is dropped, not kept.
	n := New()
	l := NewLink(n, Reliability{})
	var gotA, gotB []string
	l.mu.Lock()
	l.pending[7] = inFlight{deliver: func(e Envelope) { gotA = append(gotA, string(e.Payload)) }}
	l.pending[8] = inFlight{deliver: func(e Envelope) { gotB = append(gotB, string(e.Payload)) }}
	l.mu.Unlock()
	l.receive(Envelope{From: "a", To: "b", Kind: "k", Payload: EncodeFrame(7, 0, false, obs.SpanContext{}, []byte("for-A"))})
	l.receive(Envelope{From: "a", To: "b", Kind: "k", Payload: EncodeFrame(8, 0, false, obs.SpanContext{}, []byte("for-B"))})
	l.receive(Envelope{From: "a", To: "b", Kind: "k", Payload: EncodeFrame(7, 1, false, obs.SpanContext{}, []byte("for-A"))})
	if len(gotA) != 1 || gotA[0] != "for-A" {
		t.Errorf("seq 7 deliveries = %q, want exactly [for-A]", gotA)
	}
	if len(gotB) != 1 || gotB[0] != "for-B" {
		t.Errorf("seq 8 deliveries = %q, want exactly [for-B]", gotB)
	}
	l.receive(Envelope{From: "b", To: "a", Kind: "k/ack", Payload: EncodeFrame(9, 0, true, obs.SpanContext{}, nil)})
	l.mu.Lock()
	acked7, acked8 := l.pending[7].acked, l.pending[8].acked
	_, kept9 := l.pending[9]
	l.mu.Unlock()
	if !acked7 || !acked8 {
		t.Errorf("acks not recorded by sequence: acked[7]=%v acked[8]=%v", acked7, acked8)
	}
	if kept9 {
		t.Error("an ack for a sequence no transfer awaits was kept")
	}
}

func FuzzFrameDecode(f *testing.F) {
	f.Add(EncodeFrame(1, 0, false, obs.SpanContext{}, []byte("payload")))
	f.Add(EncodeFrame(1<<60, 65535, true, obs.SpanContext{Trace: 3, Span: 1 << 40}, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, attempt, ack, ctx, payload, ok := DecodeFrame(data)
		if !ok {
			return
		}
		// Anything the tag accepts must re-encode byte-identically: the
		// frame format is canonical.
		re := EncodeFrame(seq, attempt, ack, ctx, payload)
		if string(re) != string(data) {
			t.Fatalf("accepted frame not canonical")
		}
	})
}

// TestTransferSpansAndContextPropagation: with a registry attached, each
// Transfer opens an "xfer:<kind>" span parented under the envelope's wire
// context, delivers the envelope carrying the transfer's own context, and
// records the ack event under the transfer.
func TestTransferSpansAndContextPropagation(t *testing.T) {
	n := New()
	reg := obs.NewRegistry()
	n.SetObserver(reg)
	parent := reg.Tracer().Start("proto", nil)
	l := NewLink(n, Reliability{})
	var delivered Envelope
	err := l.Transfer(Envelope{From: "a", To: "b", Kind: "chunk", Payload: []byte("p"), Ctx: parent.Context()},
		func(e Envelope) { delivered = e })
	if err != nil {
		t.Fatal(err)
	}
	parent.End()

	spans := reg.Snapshot().Spans
	byName := map[string]obs.SpanRecord{}
	byID := map[int]obs.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		byID[sp.ID] = sp
	}
	xfer, ok := byName["xfer:chunk"]
	if !ok {
		t.Fatalf("no transfer span in %+v", spans)
	}
	if byID[xfer.Parent].Name != "proto" {
		t.Errorf("transfer parented under %q, want proto", byID[xfer.Parent].Name)
	}
	ackEv, ok := byName["ack"]
	if !ok || byID[ackEv.Parent].Name != "xfer:chunk" {
		t.Errorf("ack event not attached to the transfer: %+v", ackEv)
	}
	// The delivered envelope carries the transfer's context, so receiver
	// spans parent under the transfer, not the raw protocol span.
	if delivered.Ctx.IsZero() {
		t.Fatal("delivered envelope lost its wire context")
	}
	rcv := reg.Tracer().StartRemote("fold", delivered.Ctx)
	rcv.End()
	for _, sp := range reg.Snapshot().Spans {
		if sp.Name == "fold" {
			var names []string
			for p := sp; p.Parent != 0; {
				next := p.Parent
				for _, q := range reg.Snapshot().Spans {
					if q.ID == next {
						p = q
						break
					}
				}
				names = append(names, p.Name)
			}
			if len(names) < 2 || names[0] != "xfer:chunk" || names[1] != "proto" {
				t.Errorf("fold ancestry = %v, want [xfer:chunk proto]", names)
			}
		}
	}
}

// TestTransferRetransmitEventsAttachToOwnTransfer: two transfers over a
// dropping plane must each attribute their retransmit/backoff events to
// their own xfer span — never to the other transfer.
func TestTransferRetransmitEventsAttachToOwnTransfer(t *testing.T) {
	n := New()
	reg := obs.NewRegistry()
	n.SetObserver(reg)
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 11, Default: FaultSpec{Drop: 0.4}}))
	l := NewLink(n, Reliability{MaxRetries: 50})
	for i := 0; i < 2; i++ {
		e := Envelope{From: "a", To: "b", Kind: fmt.Sprintf("k%d", i), Payload: []byte{byte(i)}}
		if err := l.Transfer(e, func(Envelope) {}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Retransmits == 0 {
		t.Skip("seed produced no retransmits; nothing to attribute")
	}
	spans := reg.Snapshot().Spans
	byID := map[int]obs.SpanRecord{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var attributed int
	for _, sp := range spans {
		if sp.Name != "retransmit" && sp.Name != "backoff" {
			continue
		}
		p := byID[sp.Parent]
		if p.Name != "xfer:k0" && p.Name != "xfer:k1" {
			t.Errorf("%s event parented under %q", sp.Name, p.Name)
		}
		attributed++
	}
	if attributed == 0 {
		t.Error("retransmits happened but no events were recorded")
	}
}

// lossyMix is the fault mix of the gquery-lossy benchmark.
var lossyMix = FaultSpec{Drop: 0.08, Duplicate: 0.08, Delay: 0.04, Reorder: 0.04}

// The delivered-sequence set is trimmed by its watermark: over 10 000
// serial transfers on the lossy mix it never holds more than the one
// sequence a reorder can put ahead of its predecessor, and the copies the
// flush barrier releases afterwards are still recognised as duplicates.
func TestSeenSetStaysWithinReorderWindow(t *testing.T) {
	n := New()
	n.SetFaults(NewFaultPlane(FaultPlan{Seed: 21, Default: lossyMix}))
	l := NewLink(n, Reliability{})
	const transfers = 10000
	delivered, most := 0, 0
	for i := 0; i < transfers; i++ {
		err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte(fmt.Sprintf("m%05d", i))}, func(Envelope) { delivered++ })
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		l.mu.Lock()
		most = max(most, len(l.seenAbove))
		l.mu.Unlock()
	}
	if most > 1 {
		t.Errorf("the delivered set held %d sequences above its watermark, want <= 1", most)
	}
	flushed := 0
	n.FlushFaults(func(e Envelope) {
		if fr, ok := decodeFrame(e.Payload); ok && !fr.ack {
			flushed++
		}
		l.Accept(e, func(Envelope) { delivered++ })
	})
	if delivered != transfers {
		t.Errorf("delivered %d of %d (the flush released %d data copies)", delivered, transfers, flushed)
	}
	if flushed == 0 {
		t.Error("the flush released no data copy: the duplicate path went untested")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seenLow != transfers || len(l.seenAbove) != 0 {
		t.Errorf("watermark %d with %d above it, want %d and none", l.seenLow, len(l.seenAbove), transfers)
	}
}

// A reset link is a new one: rebound to a fresh wire with the same fault
// plan, it delivers, retransmits and counts exactly what a new link does.
func TestResetLinkReplaysANewLink(t *testing.T) {
	type outcome struct {
		got   []string
		rel   RelStats
		wire  Stats
		flush int
	}
	run := func(l *Link, n *Network) outcome {
		var o outcome
		for i := 0; i < 200; i++ {
			err := l.Transfer(Envelope{From: "a", To: "b", Kind: "k", Payload: []byte(fmt.Sprintf("r%03d", i))}, func(e Envelope) {
				o.got = append(o.got, string(e.Payload))
			})
			if err != nil {
				t.Fatalf("transfer %d: %v", i, err)
			}
		}
		n.FlushFaults(func(e Envelope) {
			o.flush++
			l.Accept(e, func(e Envelope) { o.got = append(o.got, "late:"+string(e.Payload)) })
		})
		o.rel, o.wire = l.Stats(), n.Stats()
		return o
	}
	wire := func() *Network {
		n := New()
		n.SetFaults(NewFaultPlane(FaultPlan{Seed: 5, Default: lossyMix}))
		return n
	}
	n1 := wire()
	want := run(NewLink(n1, Reliability{}), n1)

	n0 := wire()
	recycled := NewLink(n0, Reliability{MaxRetries: 40})
	run(recycled, n0)
	n2 := wire()
	recycled.Reset(n2, Reliability{})
	if got := run(recycled, n2); !reflect.DeepEqual(got, want) {
		t.Errorf("reset link:\n got %+v\nwant %+v", got, want)
	}
}

// The observer bridge outlives its registry's resets: after a reset, a
// network observed by the same registry counts into it what a fresh
// registry would hold, and its series bind again without allocating.
func TestObserverSurvivesRegistryReset(t *testing.T) {
	// Fault draws hash the frame, and a link's frames carry the trace id
	// of their registry, so the faulty traffic goes through Deliver and
	// the link runs on a clean wire.
	traffic := func(reg *obs.Registry) {
		n := New()
		n.SetObserver(reg)
		n.SetFaults(NewFaultPlane(FaultPlan{Seed: 3, Default: lossyMix}))
		for i := 0; i < 100; i++ {
			n.Deliver(Envelope{From: "a", To: "b", Kind: []string{"x", "y"}[i%2], Payload: []byte{byte(i)}}, func(Envelope) {})
		}
		n.FlushFaults(func(Envelope) {})
		n.SetObserver(nil)
		clean := New()
		clean.SetObserver(reg)
		l := NewLink(clean, Reliability{})
		for i := 0; i < 20; i++ {
			if err := l.Transfer(Envelope{From: "a", To: "b", Kind: "z", Payload: []byte{byte(i)}}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := obs.NewRegistry()
	reg.Counter("before_reset").Inc()
	traffic(reg)
	reg.Reset()
	traffic(reg)
	fresh := obs.NewRegistry()
	traffic(fresh)
	got, _ := reg.JSON()
	want, _ := fresh.JSON()
	if !bytes.Equal(got, want) {
		t.Errorf("a reset registry's traffic snapshot differs from a fresh one's:\n%s\n%s", got, want)
	}

	o := observerOf(reg)
	payload := []byte{1}
	round := func() {
		reg.Reset()
		o.messages.add(reg, 1)
		o.rel(relRetrans, 1)
		o.fault("drop", "x")
		o.record(Envelope{Kind: "y", Payload: payload})
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 && !race.Enabled {
		t.Errorf("re-binding the bridge's series after a reset: %.1f allocs, want 0", allocs)
	}
}
