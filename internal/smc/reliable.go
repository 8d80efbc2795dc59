package smc

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/transport"
)

// SecureSumOverNetwork runs the [CKV+02] ring protocol over a possibly
// faulty wire instead of the in-process Trace: each hop P(i) → P(i+1)
// travels as a netsim envelope of kind "ring", on whichever substrate w
// is. When plan is non-nil the wire injects the seeded fault schedule and
// every hop crosses a reliable ARQ link with the default retry budget, so
// the protocol still yields the exact sum — or fails with netsim's typed
// retry error, never a wrong answer. The returned stats expose both the
// wire cost and the reliability cost; an observer attached to w sees the
// ring frames, injected faults and ARQ overhead in its netsim_* families.
func SecureSumOverNetwork(w transport.Transport, values []int64, modulus int64, rng *rand.Rand,
	plan *netsim.FaultPlan) (int64, netsim.Stats, netsim.RelStats, error) {
	return secureSumOverNetwork(w, values, modulus, rng, plan, netsim.Reliability{})
}

// secureSumOverNetwork is SecureSumOverNetwork with an explicit retry
// budget for the ARQ link.
func secureSumOverNetwork(w transport.Transport, values []int64, modulus int64, rng *rand.Rand,
	plan *netsim.FaultPlan, rel netsim.Reliability) (int64, netsim.Stats, netsim.RelStats, error) {

	var zero netsim.RelStats
	if len(values) < 3 {
		return 0, netsim.Stats{}, zero, fmt.Errorf("%w: have %d", ErrTooFewParties, len(values))
	}
	if modulus <= 0 {
		return 0, netsim.Stats{}, zero, ErrBadModulus
	}
	for i, v := range values {
		if v < 0 || v >= modulus {
			return 0, netsim.Stats{}, zero, fmt.Errorf("%w: party %d value %d", ErrValueRange, i, v)
		}
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	mask := rng.Int63n(modulus)

	var link *netsim.Link
	if plan != nil {
		prev := w.Faults()
		w.SetFaults(netsim.NewFaultPlane(*plan))
		defer w.SetFaults(prev)
		link = netsim.NewLink(w, rel)
	}
	// The ring walk is inherently sequential, so the trace chains each hop
	// span under the previous one: the critical path of the protocol IS the
	// ring, and the exported trace shows it as one dependency chain.
	var tracer *obs.Tracer
	reg := w.Observer()
	if reg != nil {
		tracer = reg.Tracer()
	}
	var ring *obs.Span
	if tracer != nil {
		ring = tracer.Start("smc/secure-sum-ring", nil)
		ring.Annotate("parties", fmt.Sprintf("%d", len(values)))
		defer ring.End()
	}
	prevCtx := ring.Context()
	hop := func(from, to int, running int64) (int64, error) {
		var payload [8]byte
		binary.LittleEndian.PutUint64(payload[:], uint64(running))
		e := netsim.Envelope{
			From:    fmt.Sprintf("party-%d", from),
			To:      fmt.Sprintf("party-%d", to),
			Kind:    "ring",
			Payload: payload[:],
			Ctx:     prevCtx,
		}
		var got int64
		inCtx := prevCtx
		if link == nil {
			w.Send(e)
			got = running
		} else {
			delivered := false
			cost, err := link.TransferCost(e, func(in netsim.Envelope) {
				got = int64(binary.LittleEndian.Uint64(in.Payload))
				inCtx = in.Ctx
				delivered = true
			})
			if err != nil {
				return 0, err
			}
			// The ring is serial: a hop's backoff delays the whole walk.
			if reg != nil {
				reg.Clock().Advance(cost.Backoff)
			}
			if !delivered {
				return 0, fmt.Errorf("smc: ring hop %d→%d acked but not delivered", from, to)
			}
		}
		if tracer != nil {
			hs := tracer.StartRemote("ring-hop", inCtx)
			hs.Annotate("from", e.From)
			hs.Annotate("to", e.To)
			hs.End()
			prevCtx = hs.Context()
		}
		return got, nil
	}

	running := (values[0] + mask) % modulus
	for i := 1; i < len(values); i++ {
		got, err := hop(i-1, i, running)
		if err != nil {
			return 0, w.Stats(), relStats(link), err
		}
		running = (got + values[i]) % modulus
	}
	got, err := hop(len(values)-1, 0, running)
	if err != nil {
		return 0, w.Stats(), relStats(link), err
	}
	sum := ((got-mask)%modulus + modulus) % modulus
	return sum, w.Stats(), relStats(link), nil
}

func relStats(link *netsim.Link) netsim.RelStats {
	if link == nil {
		return netsim.RelStats{}
	}
	return link.Stats()
}
