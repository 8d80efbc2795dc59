package transport

import (
	"testing"
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// Two nodes on one switch: sends echo back synchronously, forwarded
// frames reach the claiming node, RPC round-trips.
func TestSwitchEchoForwardCall(t *testing.T) {
	sw, err := NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	a, err := Dial(sw.Addr(), "querier")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(sw.Addr(), "ssi")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan netsim.Envelope, 4)
	if err := b.Handle("ssi*", func(e netsim.Envelope) { got <- e }); err != nil {
		t.Fatal(err)
	}
	b.OnCall("partition", func(req netsim.Envelope, body []byte) []byte {
		return append([]byte("re:"), body...)
	})

	reg := obs.NewRegistry()
	a.SetObserver(reg)
	var tapped netsim.Stats
	a.Tap(func(e netsim.Envelope) {
		tapped.Messages, tapped.Bytes = tapped.Messages+1, tapped.Bytes+int64(len(e.Payload))
	})
	e := netsim.Envelope{From: "querier", To: "ssi:0", Kind: "tuple", Payload: []byte("hello")}
	out := a.Send(e)
	if out.Kind != "tuple" || string(out.Payload) != "hello" {
		t.Fatalf("echo mismatch: %+v", out)
	}
	select {
	case fwd := <-got:
		if fwd.To != "ssi:0" || string(fwd.Payload) != "hello" {
			t.Fatalf("forward mismatch: %+v", fwd)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded frame never arrived")
	}
	if s, _ := netsim.Counted(reg); s.Messages != 1 || s.Bytes != int64(len("hello")) || s != tapped {
		t.Fatalf("accounting mismatch: observer %+v, tap %+v", s, tapped)
	}

	re, err := a.Call("ssi", "partition", []byte("chunk"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != "re:chunk" {
		t.Fatalf("call reply mismatch: %q", re)
	}

	// A deliver through an armed plane draws the same seeded decision as
	// on the simulator and still invokes rcv synchronously for survivors.
	a.SetFaults(netsim.NewFaultPlane(netsim.FaultPlan{Seed: 7, Default: netsim.FaultSpec{Duplicate: 1}}))
	n := 0
	a.Deliver(netsim.Envelope{From: "querier", To: "ssi:1", Kind: "dup", Payload: []byte("x")}, func(netsim.Envelope) { n++ })
	if n != 2 {
		t.Fatalf("duplicate fault delivered %d copies, want 2", n)
	}
	a.SetFaults(nil)
}

// The ARQ reliability layer runs unchanged over the TCP substrate, and a
// remote FrameSink sees each logical envelope exactly once.
func TestLinkOverTCP(t *testing.T) {
	sw, err := NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	a, err := Dial(sw.Addr(), "querier")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(sw.Addr(), "ssi")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	sink := NewFrameSink()
	remote := make(chan netsim.Envelope, 16)
	if err := b.Handle("ssi", func(e netsim.Envelope) {
		sink.Accept(e, func(d netsim.Envelope) { remote <- d })
	}); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	a.SetObserver(reg)
	a.SetFaults(netsim.NewFaultPlane(netsim.FaultPlan{Seed: 11, Default: netsim.FaultSpec{Drop: 0.3}}))
	link := netsim.NewLink(a, netsim.Reliability{MaxRetries: 16})
	var local []string
	for i := 0; i < 8; i++ {
		payload := []byte{byte('a' + i)}
		err := link.Transfer(netsim.Envelope{From: "querier", To: "ssi", Kind: "tuple", Payload: payload},
			func(e netsim.Envelope) { local = append(local, string(e.Payload)) })
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	if len(local) != 8 {
		t.Fatalf("local deliveries = %d, want 8", len(local))
	}
	seen := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(seen) < 8 {
		select {
		case e := <-remote:
			if seen[string(e.Payload)] {
				t.Fatalf("remote duplicate delivery of %q", e.Payload)
			}
			seen[string(e.Payload)] = true
		case <-deadline:
			t.Fatalf("remote saw %d of 8 envelopes", len(seen))
		}
	}
	if _, rs := netsim.Counted(reg); rs.Transfers != 8 {
		t.Fatalf("link transfers = %d, want 8", rs.Transfers)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("wire error: %v", err)
	}
}

// A second Handle of one pattern replaces the first's handler: a node
// that claims an endpoint again for a new run gets that run's frames.
func TestHandleReplacesSamePattern(t *testing.T) {
	sw, err := NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	a, err := Dial(sw.Addr(), "ssi")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(sw.Addr(), "querier")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	first, second := make(chan netsim.Envelope, 1), make(chan netsim.Envelope, 1)
	for _, ch := range []chan netsim.Envelope{first, second} {
		if err := b.Handle("ssi:0/chunks", func(e netsim.Envelope) { ch <- e }); err != nil {
			t.Fatal(err)
		}
	}
	a.Send(netsim.Envelope{From: "ssi", To: "ssi:0/chunks", Kind: "chunk", Payload: []byte("c")})
	select {
	case <-second:
	case <-first:
		t.Fatal("frame reached the replaced handler")
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded frame never arrived")
	}
}
