package transport

import (
	"net"
	"strings"
	"testing"
	"time"

	"pds/internal/netsim"
)

// FuzzRoute compares the route rule with a reference that scans every
// claimed pattern: the pattern equal to the endpoint wins, else the
// longest pattern ending in '*' whose prefix the endpoint has. A later
// claim of the same pattern replaces the earlier one, as on the switch.
func FuzzRoute(f *testing.F) {
	f.Add("ssi*\nssi:0\nss*", "ssi:0")
	f.Add("ssi*\nss*\nquerier", "ssi:1")
	f.Add("a*\nab*\nabc\nab*", "abd")
	f.Add("*\nx", "y")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, patterns, endpoint string) {
		claimed := strings.Split(patterns, "\n")
		claims := map[string]int{}
		for i, p := range claimed {
			claims[p] = i
		}
		want, wantOK, best := 0, false, -1
		for _, p := range claimed {
			pre, star := strings.CutSuffix(p, "*")
			switch {
			case p == endpoint:
				want, wantOK, best = claims[p], true, len(endpoint)+1
			case star && len(pre) > best && strings.HasPrefix(endpoint, pre):
				want, wantOK, best = claims[p], true, len(pre)
			}
		}
		if got, ok := route(claims, endpoint); got != want || ok != wantOK {
			t.Fatalf("route(%q, %q) = %d, %v; the scan finds %d, %v", claimed, endpoint, got, ok, want, wantOK)
		}
	})
}

// Close drops every connection the switch accepted: one that never said
// hello, and one whose only route another connection claimed away.
func TestSwitchCloseDropsEveryConnection(t *testing.T) {
	sw, err := NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var nodes []*TCP
	for range 2 {
		n, err := Dial(sw.Addr(), "ssi")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	closed := make(chan error, 1)
	go func() { closed <- sw.Close() }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1 s")
	}
	for i, n := range nodes {
		select {
		case <-n.Done():
		case <-time.After(time.Second):
			t.Fatalf("node %d still connected after Close", i)
		}
	}
}

// A dead switch releases a node's waiters at once: a Send and a Call
// return without waiting out any timeout, and Err reports the wire error.
func TestDeadSwitchReleasesWaiters(t *testing.T) {
	sw, err := NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Dial(sw.Addr(), "querier")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sw.Close()
	within := func(what string, op func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); op() }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s on a dead switch still blocked after 2 s", what)
		}
	}
	within("Send", func() { a.Send(netsim.Envelope{From: "querier", To: "ssi", Kind: "tuple", Payload: []byte("x")}) })
	within("Call", func() {
		if _, err := a.Call("ssi", "probe", nil, time.Minute); err == nil {
			t.Error("Call on a dead switch returned no error")
		}
	})
	if a.Err() == nil {
		t.Error("Err() = nil after the switch died")
	}
}
