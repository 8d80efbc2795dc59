// The transport conformance battery (DESIGN §12): every substrate must
// present the simulator's contract — synchronous per-copy delivery, exact
// traffic accounting, seeded content-hash fault decisions, ARQ-compatible
// framing, observer epochs that attach and detach cleanly — so protocol
// code cannot tell which wire it runs on. Each property runs against both
// implementations through one table; the seeded-transcript test pins the
// substrates to each other, byte for byte.
package transport_test

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// substrate is one Transport implementation under test.
type substrate struct {
	name string
	mk   func(t testing.TB) tnet.Transport
}

func substrates() []substrate {
	return []substrate{
		{"netsim", func(t testing.TB) tnet.Transport { return netsim.New() }},
		{"tcp", func(t testing.TB) tnet.Transport { return dialLoopback(t) }},
	}
}

// dialLoopback spins up a one-port switch and a querier endpoint on it,
// both torn down with the test.
func dialLoopback(t testing.TB) *tnet.TCP {
	t.Helper()
	sw, err := tnet.NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tnet.Dial(sw.Addr(), "querier")
	if err != nil {
		sw.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); sw.Close() })
	return c
}

// Clean-wire delivery is synchronous and ordered: every Deliver invokes
// rcv exactly once before returning, arrivals preserve send order, and
// the accounting matches the traffic exactly.
func TestConformanceSynchronousOrdering(t *testing.T) {
	for _, s := range substrates() {
		t.Run(s.name, func(t *testing.T) {
			w := s.mk(t)
			reg := obs.NewRegistry()
			w.SetObserver(reg)
			defer w.SetObserver(nil)
			var arrivals []string
			bytes := 0
			for i := 0; i < 16; i++ {
				payload := []byte(fmt.Sprintf("payload-%02d", i))
				bytes += len(payload)
				kind := fmt.Sprintf("kind-%d", i%3)
				before := len(arrivals)
				w.Deliver(netsim.Envelope{From: "querier", To: "ssi:0", Kind: kind, Payload: payload},
					func(e netsim.Envelope) { arrivals = append(arrivals, string(e.Payload)) })
				if len(arrivals) != before+1 {
					t.Fatalf("deliver %d was not synchronous: %d arrivals", i, len(arrivals))
				}
			}
			for i, got := range arrivals {
				if want := fmt.Sprintf("payload-%02d", i); got != want {
					t.Fatalf("arrival %d = %q, want %q", i, got, want)
				}
			}
			if st := w.Stats(); st.Messages != 16 || st.Bytes != int64(bytes) {
				t.Errorf("stats = %+v, want 16 msgs / %d bytes", st, bytes)
			}
			if got := reg.CounterValue(netsim.MetricKindMessages, "kind", "kind-1"); got != 5 {
				t.Errorf("kind-1 messages = %d, want 5", got)
			}
			out := w.Send(netsim.Envelope{From: "a", To: "b", Kind: "direct", Payload: []byte("xyz")})
			if out.Kind != "direct" || string(out.Payload) != "xyz" {
				t.Errorf("Send round-trip mutated the envelope: %+v", out)
			}
		})
	}
}

// The same seeded fault plan applied to the same envelope sequence yields
// an identical arrival transcript — copies, order, flush order and the
// plane's fault counters — on every substrate. This is the property that
// makes a seeded protocol run reproducible across deployments.
func TestConformanceSeededFaultTranscript(t *testing.T) {
	plan := netsim.FaultPlan{
		Seed:    42,
		Default: netsim.FaultSpec{Drop: 0.2, Duplicate: 0.2, Delay: 0.2, Reorder: 0.2},
	}
	kinds := []string{"tuple", "chunk", "partial"}
	// faults reads the plane's netsim_faults_total{fault,kind} series.
	type faults map[string]int64
	transcript := func(w tnet.Transport) ([]string, faults) {
		reg := obs.NewRegistry()
		w.SetObserver(reg)
		defer w.SetObserver(nil)
		w.SetFaults(netsim.NewFaultPlane(plan))
		var got []string
		for i := 0; i < 64; i++ {
			e := netsim.Envelope{
				From:    fmt.Sprintf("pds-%02d", i%8),
				To:      "ssi:0",
				Kind:    kinds[i%len(kinds)],
				Payload: []byte(fmt.Sprintf("body-%03d", i)),
			}
			w.Deliver(e, func(a netsim.Envelope) {
				got = append(got, a.Kind+":"+string(a.Payload))
			})
		}
		w.FlushFaults(func(a netsim.Envelope) {
			got = append(got, "flush/"+a.Kind+":"+string(a.Payload))
		})
		w.SetFaults(nil)
		st := faults{}
		for _, f := range []string{"drop", "duplicate", "delay", "reorder"} {
			for _, k := range kinds {
				if n := reg.CounterValue(netsim.MetricFaults, "fault", f, "kind", k); n != 0 {
					st[f+"/"+k] = n
				}
			}
		}
		return got, st
	}

	var want []string
	var wantStats faults
	for i, s := range substrates() {
		t.Run(s.name, func(t *testing.T) {
			got, st := transcript(s.mk(t))
			if len(st) == 0 {
				t.Fatal("plan injected no faults at all")
			}
			if i == 0 {
				want, wantStats = got, st
				return
			}
			if !maps.Equal(st, wantStats) {
				t.Errorf("fault stats diverge: %+v vs %+v", st, wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("transcript length %d vs %d", len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("transcript diverges at %d: %q vs %q", j, got[j], want[j])
				}
			}
		})
	}
}

// The ARQ reliability layer recovers a lossy wire on any substrate:
// every transfer completes exactly once, and the retry cost is visible in
// the link counters.
func TestConformanceARQRetry(t *testing.T) {
	for _, s := range substrates() {
		t.Run(s.name, func(t *testing.T) {
			w := s.mk(t)
			w.SetFaults(netsim.NewFaultPlane(netsim.FaultPlan{Seed: 11, Default: netsim.FaultSpec{Drop: 0.3}}))
			defer w.SetFaults(nil)
			link := netsim.NewLink(w, netsim.Reliability{MaxRetries: 25})
			delivered := map[string]int{}
			for i := 0; i < 12; i++ {
				payload := []byte(fmt.Sprintf("frame-%02d", i))
				err := link.Transfer(netsim.Envelope{From: "querier", To: "ssi:0", Kind: "tuple", Payload: payload},
					func(e netsim.Envelope) { delivered[string(e.Payload)]++ })
				if err != nil {
					t.Fatalf("transfer %d: %v", i, err)
				}
			}
			for p, n := range delivered {
				if n != 1 {
					t.Errorf("%q delivered %d times, want exactly once", p, n)
				}
			}
			if len(delivered) != 12 {
				t.Errorf("delivered %d distinct frames, want 12", len(delivered))
			}
			rs := link.Stats()
			if rs.Transfers != 12 || rs.Retransmits == 0 || rs.Acks == 0 {
				t.Errorf("30%% drop left no ARQ footprint: %+v", rs)
			}
		})
	}
}

// Truncated garbage and tampered frames are rejected by the integrity
// tag on every substrate — counted, never delivered.
func TestConformanceTagFailure(t *testing.T) {
	for _, s := range substrates() {
		t.Run(s.name, func(t *testing.T) {
			w := s.mk(t)
			link := netsim.NewLink(w, netsim.Reliability{})
			delivered := 0
			accept := func(e netsim.Envelope) { link.Accept(e, func(netsim.Envelope) { delivered++ }) }

			w.Deliver(netsim.Envelope{From: "x", To: "y", Kind: "tuple", Payload: []byte("not-a-frame")}, accept)
			tampered := netsim.EncodeFrame(7, 0, false, obs.SpanContext{}, []byte("payload"))
			tampered[len(tampered)-1] ^= 0xFF // break the tag
			w.Deliver(netsim.Envelope{From: "x", To: "y", Kind: "tuple", Payload: tampered}, accept)

			if delivered != 0 {
				t.Errorf("corrupted frames delivered %d times", delivered)
			}
			if rs := link.Stats(); rs.TagFailures != 2 {
				t.Errorf("tag failures = %d, want 2", rs.TagFailures)
			}
		})
	}
}

// The span context on an envelope survives the wire on the clean path and
// on every copy the fault plane produces.
func TestConformanceTracePropagation(t *testing.T) {
	ctx := obs.SpanContext{Trace: 0xDEADBEEF, Span: 0xCAFE}
	for _, s := range substrates() {
		t.Run(s.name, func(t *testing.T) {
			w := s.mk(t)
			w.Deliver(netsim.Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("p"), Ctx: ctx},
				func(e netsim.Envelope) {
					if e.Ctx != ctx {
						t.Errorf("clean path ctx = %+v, want %+v", e.Ctx, ctx)
					}
				})
			w.SetFaults(netsim.NewFaultPlane(netsim.FaultPlan{Seed: 7, Default: netsim.FaultSpec{Duplicate: 1}}))
			copies := 0
			w.Deliver(netsim.Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("q"), Ctx: ctx},
				func(e netsim.Envelope) {
					copies++
					if e.Ctx != ctx {
						t.Errorf("faulted copy ctx = %+v, want %+v", e.Ctx, ctx)
					}
				})
			if copies != 2 {
				t.Errorf("duplicate fault produced %d copies, want 2", copies)
			}
			w.SetFaults(nil)
		})
	}
}

// Observer epochs attach and detach cleanly: traffic lands in exactly the
// registry installed at send time, and injected faults are mirrored into
// the current epoch's registry.
func TestConformanceObserverEpochs(t *testing.T) {
	for _, s := range substrates() {
		t.Run(s.name, func(t *testing.T) {
			w := s.mk(t)
			first := obs.NewRegistry()
			w.SetObserver(first)
			for i := 0; i < 3; i++ {
				w.Send(netsim.Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("xx")})
			}
			second := obs.NewRegistry()
			w.SetObserver(second)
			w.SetFaults(netsim.NewFaultPlane(netsim.FaultPlan{Seed: 3, Default: netsim.FaultSpec{Drop: 1}}))
			w.Deliver(netsim.Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("yy")}, func(netsim.Envelope) {
				t.Error("drop=1 envelope was delivered")
			})
			w.SetFaults(nil)
			w.SetObserver(nil)

			if got := first.CounterValue(netsim.MetricMessages); got != 3 {
				t.Errorf("first epoch messages = %d, want 3", got)
			}
			if got := first.CounterValue(netsim.MetricBytes); got != 6 {
				t.Errorf("first epoch bytes = %d, want 6", got)
			}
			if got := second.CounterValue(netsim.MetricMessages); got != 1 {
				t.Errorf("second epoch messages = %d, want 1", got)
			}
			if got := second.CounterValue(netsim.MetricFaults, "fault", "drop", "kind", "k"); got != 1 {
				t.Errorf("second epoch drop faults = %d, want 1", got)
			}
			if got := first.CounterValue(netsim.MetricFaults, "fault", "drop", "kind", "k"); got != 0 {
				t.Errorf("retired epoch saw %d faults, want 0", got)
			}
		})
	}
}

// A protocol run arms the wire's fault plane for its own duration only:
// the pre-run plane is restored on the success path AND the error path,
// on every substrate.
func TestConformanceFaultPlaneRestore(t *testing.T) {
	parts := confParts(8, 3)
	kr, err := gquery.KeyringFrom(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range substrates() {
		t.Run(s.name, func(t *testing.T) {
			w := s.mk(t)
			srv := ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
			plan := &netsim.FaultPlan{Seed: 108, Default: netsim.FaultSpec{Drop: 0.2, Duplicate: 0.1}}
			res, _, err := gquery.New(gquery.WithWorkers(2), gquery.WithFaults(plan), gquery.WithRetries(25)).
				SecureAgg(w, srv, parts, kr, 5)
			if err != nil {
				t.Fatalf("faulted run failed: %v", err)
			}
			if want := gquery.PlainResult(parts); len(res) != len(want) {
				t.Fatalf("result groups = %d, want %d", len(res), len(want))
			}
			if w.Faults() != nil {
				t.Error("successful run left its fault plane armed")
			}

			srv2 := ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
			dead := &netsim.FaultPlan{Seed: 109, Default: netsim.FaultSpec{Drop: 1}}
			if _, _, err := gquery.New(gquery.WithFaults(dead), gquery.WithRetries(2)).
				SecureAgg(w, srv2, parts, kr, 5); err == nil {
				t.Fatal("drop=1 run unexpectedly succeeded")
			}
			if w.Faults() != nil {
				t.Error("failed run left its fault plane armed")
			}

			delivered := 0
			w.Deliver(netsim.Envelope{From: "a", To: "b", Kind: "post", Payload: []byte("x")},
				func(netsim.Envelope) { delivered++ })
			if delivered != 1 {
				t.Errorf("post-run delivery saw %d copies, want 1 (clean wire)", delivered)
			}
		})
	}
}

// A second process claiming an endpoint sees forwarded copies with the
// sender's trace context intact — the cross-process leg of trace
// propagation the shared battery cannot exercise on the simulator.
func TestTCPRemoteTraceContext(t *testing.T) {
	sw, err := tnet.NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	q, err := tnet.Dial(sw.Addr(), "querier")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	r, err := tnet.Dial(sw.Addr(), "ssi-host")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	got := make(chan netsim.Envelope, 1)
	if err := r.Handle("ssi:0", func(e netsim.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	ctx := obs.SpanContext{Trace: 0xABCD, Span: 0x1234}
	q.Send(netsim.Envelope{From: "querier", To: "ssi:0", Kind: "tuple", Payload: []byte("p"), Ctx: ctx})
	e := <-got
	if e.Ctx != ctx || e.From != "querier" || e.Kind != "tuple" {
		t.Fatalf("forwarded envelope = %+v, want ctx %+v", e, ctx)
	}
}

// An exhausted retry budget surfaces as the typed *netsim.RetryError on
// both substrates — the error contract protocol code matches on.
func TestConformanceRetryErrorTyped(t *testing.T) {
	for _, s := range substrates() {
		t.Run(s.name, func(t *testing.T) {
			w := s.mk(t)
			w.SetFaults(netsim.NewFaultPlane(netsim.FaultPlan{Seed: 5, Default: netsim.FaultSpec{Drop: 1}}))
			defer w.SetFaults(nil)
			link := netsim.NewLink(w, netsim.Reliability{MaxRetries: 2})
			err := link.Transfer(netsim.Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("p")}, nil)
			if !errors.Is(err, netsim.ErrRetriesExhausted) {
				t.Fatalf("err = %v, want ErrRetriesExhausted", err)
			}
			var re *netsim.RetryError
			if !errors.As(err, &re) || re.Attempts != 3 {
				t.Fatalf("retry error detail = %+v", re)
			}
		})
	}
}

// confParts builds a small deterministic participant fleet without
// reaching into gquery's internal test helpers.
func confParts(n, tuplesEach int) []gquery.Participant {
	groups := []string{"asthma", "diabetes", "flu", "healthy"}
	parts := make([]gquery.Participant, n)
	for i := range parts {
		parts[i].ID = fmt.Sprintf("pds-%04d", i)
		for j := 0; j < tuplesEach; j++ {
			parts[i].Tuples = append(parts[i].Tuples, gquery.Tuple{
				Group: groups[(i+j)%len(groups)],
				Value: int64(i*10 + j),
			})
		}
	}
	return parts
}
