// Package transport is the pluggable wire seam of the asymmetric PDS
// architecture (DESIGN §12): the surface the Part III protocol engines
// (gquery, smc) and the SSI drivers program against, with two
// implementations — the in-process simulator (netsim.Network) and a real
// length-prefixed TCP substrate (TCP + Switch) that carries the identical
// frames across OS processes.
//
// The contract is the simulator's: Deliver invokes its receive callback
// synchronously on the caller's goroutine, once per copy that arrives,
// after routing the envelope through whatever fault plane is armed. The
// TCP substrate preserves this by echoing every frame back to its sender —
// the caller blocks until the switch has accepted and echoed the frame —
// so a seeded protocol run makes identical decisions, produces identical
// aggregates and identical obs counters on either substrate; the only
// difference is that frames additionally reach whichever process claimed
// the destination endpoint.
package transport

import (
	"pds/internal/netsim"
	"pds/internal/obs"
)

// Transport moves protocol envelopes between the nodes of one deployment.
// It extends netsim.Wire (the minimal surface the ARQ reliability layer
// rides on) with the fault-plane hooks and the observer the protocol
// engines need; the observer registry is the wire's only traffic ledger.
// Implementations must be safe for the concurrent sends of a parallel
// token fleet.
type Transport interface {
	netsim.Wire

	// Send records one envelope and moves it without fault injection —
	// the direct path clean runs take. It returns the envelope as the far
	// side of the wire saw it (for the in-process simulator, unchanged).
	Send(e netsim.Envelope) netsim.Envelope

	// SetFaults arms (or, with nil, removes) the deterministic fault
	// plane applied to envelopes routed through Deliver. The transport's
	// current observer is bound into the plane so injected faults are
	// mirrored; protocol runs restore the previous plane on every exit
	// path.
	SetFaults(fp *netsim.FaultPlane)
	// Faults returns the armed fault plane, or nil on a clean wire.
	Faults() *netsim.FaultPlane
	// FlushFaults releases every envelope the fault plane withholds, in
	// its seeded order — the phase-barrier where delayed traffic finally
	// arrives. No-op on a clean wire.
	FlushFaults(rcv func(netsim.Envelope))

	// SetObserver attaches (or, with nil, detaches) a metrics registry;
	// subsequent traffic, fault decisions and reliability events are
	// mirrored into it. Protocol runs swap a run-local registry in here
	// for the duration of one run.
	SetObserver(reg *obs.Registry)
	// Observer returns the attached registry, or nil.
	Observer() *obs.Registry
}

// Both substrates implement the full surface.
var (
	_ Transport = (*netsim.Network)(nil)
	_ Transport = (*TCP)(nil)
)
