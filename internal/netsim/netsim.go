// Package netsim is the accounting plane of the asymmetric PDS
// architecture: an in-process message fabric connecting secure tokens to
// the untrusted Supporting Server Infrastructure. Protocols run in-process
// for determinism; every envelope they exchange is recorded here, so
// benchmarks report exact message/byte counts and a simulated wall-clock
// under a configurable latency/bandwidth model, and adversaries can tap
// the wire to model eavesdropping.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pds/internal/obs"
)

// Envelope is one message on the wire. Payload is whatever the sender put
// there — for a privacy-preserving protocol, ciphertext. Ctx is the
// sender's span context: the causal parent any span the receiver opens for
// this message should hang under. On the direct path it rides the struct;
// the reliability layer additionally serializes it into frame bytes so it
// survives the trip through the fault plane.
type Envelope struct {
	From    string
	To      string
	Kind    string // protocol phase tag, e.g. "tuple", "chunk", "partial"
	Payload []byte
	Ctx     obs.SpanContext
}

// Stats aggregates traffic counters.
type Stats struct {
	Messages int64
	Bytes    int64
}

// Wire is the minimal substrate the reliability layer rides on: a way to
// move one envelope (through whatever fault plane the substrate arms) and
// the network that counts it, whose observer the ARQ events are mirrored
// into. *Network is the in-process implementation; the transport package
// defines the full pluggable surface and a TCP implementation, both of
// which satisfy Wire.
type Wire interface {
	// Deliver routes one envelope: rcv is invoked synchronously, once per
	// copy that arrives now (zero times for a dropped or withheld
	// envelope, twice for a duplicated one). The payload is the caller's
	// and is valid only for the duration of the call: the sender may
	// reuse its bytes once Deliver returns, so a wire that withholds an
	// envelope keeps a copy, and a receiver or tap that keeps any of it
	// past its own call copies what it keeps.
	Deliver(e Envelope, rcv func(Envelope))
	// Accounting returns the network that counts the wire's traffic: the
	// wire itself in process, the counting plane of an out-of-process
	// substrate. Its observer is the one the wire, its fault plane and
	// its links share.
	Accounting() *Network
}

// CostModel converts traffic into simulated elapsed time assuming serial
// delivery: Messages·Latency + Bytes/Bandwidth.
type CostModel struct {
	Latency   time.Duration // per message
	Bandwidth float64       // bytes per second
}

// DefaultCostModel models tokens behind domestic connections: 20 ms RTT,
// 1 MB/s upstream.
func DefaultCostModel() CostModel {
	return CostModel{Latency: 20 * time.Millisecond, Bandwidth: 1 << 20}
}

// Time returns the simulated time for the counted traffic.
func (s Stats) Time(m CostModel) time.Duration {
	t := time.Duration(s.Messages) * m.Latency
	if m.Bandwidth > 0 {
		t += time.Duration(float64(s.Bytes) / m.Bandwidth * float64(time.Second))
	}
	return t
}

func (s Stats) String() string {
	return fmt.Sprintf("msgs=%d bytes=%d", s.Messages, s.Bytes)
}

// Network is the wire's accounting plane. It keeps no totals of its own:
// an attached observer registry (SetObserver) counts every envelope, in
// total and per kind (netsim_messages_total, netsim_kind_*), and a tap
// sees each one. It is safe for concurrent use, and the hot path (Send)
// is lock-free, so a parallel token fleet does not serialize on it.
//
// An optional FaultPlane (SetFaults) injects deterministic drop, duplicate,
// delay and reorder faults into envelopes routed through Deliver.
type Network struct {
	faults atomic.Pointer[FaultPlane]
	obsv   atomic.Pointer[netObserver]

	mu   sync.Mutex // guards tap registration
	taps atomic.Pointer[[]func(Envelope)]
}

// New creates an empty network.
func New() *Network { return &Network{} }

// Send records one envelope and notifies taps. It returns the envelope so
// call sites can write `recipient.Handle(net.Send(env))`. Send is pure
// accounting: the fault plane applies only to envelopes routed through
// Deliver, where dropping or duplicating can actually take effect.
func (n *Network) Send(e Envelope) Envelope {
	if o := n.obsv.Load(); o != nil {
		o.record(e)
	}
	if taps := n.taps.Load(); taps != nil {
		for _, t := range *taps {
			t(e)
		}
	}
	return e
}

// Deliver counts the envelope like Send and then hands it to the fault
// plane: rcv is invoked once per copy that arrives now — zero times for a
// dropped or withheld envelope, twice for a duplicated one, and possibly
// for an earlier withheld envelope of the same kind the plane releases.
// Without a fault plane it is exactly Send followed by rcv(e).
//
// The bytes handed to Deliver, to rcv and to a tap are valid only for the
// duration of that call. The plane copies an envelope it withholds; a
// receiver or tap that keeps a payload copies it.
func (n *Network) Deliver(e Envelope, rcv func(Envelope)) {
	n.Send(e)
	fp := n.faults.Load()
	if fp == nil {
		rcv(e)
		return
	}
	out, k := fp.transmit(e)
	for i := 0; i < k; i++ {
		rcv(out[i])
	}
}

// SetFaults installs (or, with nil, removes) the fault-injection plane and
// binds the network's observer into it so injected faults are mirrored.
func (n *Network) SetFaults(fp *FaultPlane) {
	if fp != nil {
		fp.obsv.Store(n.obsv.Load())
	}
	n.faults.Store(fp)
}

// Accounting returns the network itself: in process, the wire is the
// network that counts it.
func (n *Network) Accounting() *Network { return n }

// Faults returns the installed fault plane, or nil on a clean wire.
func (n *Network) Faults() *FaultPlane {
	return n.faults.Load()
}

// FlushFaults releases every envelope the fault plane is withholding, in a
// seeded deterministic order — the phase barrier where delayed traffic
// finally arrives. No-op on a clean wire.
func (n *Network) FlushFaults(rcv func(Envelope)) {
	if fp := n.faults.Load(); fp != nil {
		fp.Flush(rcv)
	}
}

// Tap registers an observer called for every envelope (an eavesdropper or
// a test probe). Taps must not block and must tolerate concurrent calls
// when a parallel token fleet is sending. The payload a tap sees is valid
// only for the duration of the call; a tap that keeps it copies it.
func (n *Network) Tap(f func(Envelope)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var taps []func(Envelope)
	if old := n.taps.Load(); old != nil {
		taps = append(taps, *old...)
	}
	taps = append(taps, f)
	n.taps.Store(&taps)
}
