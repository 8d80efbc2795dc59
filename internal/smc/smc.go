// Package smc implements the secure multi-party computation toolkit the
// tutorial presents as the state of the art for specific global
// computations ([CKV+02]): secure sum, secure set union, secure size of
// set intersection and scalar product — plus Yao's original millionaire
// protocol as the historical reference point for generic (and costly) SMC.
//
// Every protocol runs among its parties on a transport (the in-process
// simulator or the TCP wire): each message is one envelope on the wire,
// and the Trace a run returns is read off the run's own registry, the
// wire's one traffic ledger. The secure-sum ring can also cross a faulty
// wire over reliable links.
package smc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/transport"
)

// Errors returned by toolkit protocols.
var (
	ErrTooFewParties = errors.New("smc: protocol needs at least 3 parties")
	ErrBadModulus    = errors.New("smc: modulus must be positive")
	ErrValueRange    = errors.New("smc: value outside [0, modulus)")
)

// Trace records the communication of one protocol run.
type Trace struct {
	Messages int
	Bytes    int
	// Rel is the ARQ links' cost of a ring run on a faulty wire: zero on
	// a clean wire and for the protocols that take the direct path.
	Rel netsim.RelStats
}

// wireRun is one protocol run's borrow of its wire: reg, a run-local
// registry, observes the wire for the run and is the ledger its Trace is
// read off; release restores the previous observer and merges reg into
// it. A run defers release right after borrow, so it holds on every exit
// path.
type wireRun struct {
	w         transport.Transport
	reg, prev *obs.Registry
}

func borrow(w transport.Transport) wireRun {
	r := wireRun{w, obs.NewRegistry(), w.Observer()}
	w.SetObserver(r.reg)
	return r
}

func (r wireRun) release() {
	if r.w.SetObserver(r.prev); r.prev != nil {
		r.prev.Merge(r.reg)
	}
}

// ring returns the run's secure-sum ring, which traces its walks only
// when somebody observes the wire: an unobserved run opens no spans.
func (r wireRun) ring() ring {
	if r.prev == nil {
		return ring{w: r.w}
	}
	return ring{w: r.w, reg: r.reg}
}

// trace reads what the wire carried so far in the run.
func (r wireRun) trace() *Trace {
	net, rel := netsim.Counted(r.reg)
	return &Trace{int(net.Messages), int(net.Bytes), rel}
}

// send carries one protocol message from one party to another as an
// envelope of the given kind on w's direct path, and returns the payload
// the far side received.
func send(w transport.Transport, from, to, kind string, payload []byte) []byte {
	return w.Send(netsim.Envelope{From: from, To: to, Kind: kind, Payload: payload}).Payload
}

// party names party i of a multi-party protocol on the wire.
func party(i int) string { return "party-" + strconv.Itoa(i) }

// SecureSum runs the [CKV+02] ring protocol over w: the initiator masks
// its value with a uniform random R modulo m; each party adds its value
// modulo m and forwards; the initiator finally subtracts R. Every
// intermediate message is uniformly distributed, so an honest-but-curious
// party — or an eavesdropper on w — learns nothing beyond the final sum.
//
// values[i] is party i's private input, all in [0, modulus). The returned
// sum is Σ values mod modulus. Each hop P(i) → P(i+1) travels as one
// envelope of kind "ring". A nil plan keeps w's wire as it is; a non-nil
// plan arms its seeded fault schedule for the run and moves every hop
// over a reliable ARQ link, so the ring still yields the exact sum — or
// fails with netsim's typed retry error, never a wrong answer. The Trace
// counts what w carried during the run, acks and retransmits included.
func SecureSum(w transport.Transport, values []int64, modulus int64, rng *rand.Rand,
	plan *netsim.FaultPlan) (int64, *Trace, error) {
	return SecureSumSegmented(w, values, modulus, 1, rng, plan)
}

// SecureSumSegmented is the collusion-hardened variant [CKV+02] suggest:
// each party splits its value into `segments` random shares and the ring
// protocol runs once per segment with a different party order, so a
// coalition of neighbours learns only masked segments. Returns the total.
// The wire and the plan are SecureSum's; one segment is SecureSum.
func SecureSumSegmented(w transport.Transport, values []int64, modulus int64, segments int, rng *rand.Rand,
	plan *netsim.FaultPlan) (int64, *Trace, error) {
	if segments < 1 {
		return 0, nil, fmt.Errorf("smc: segments must be >= 1, got %d", segments)
	}
	n := len(values)
	if n < 3 {
		return 0, nil, fmt.Errorf("%w: have %d", ErrTooFewParties, n)
	}
	if modulus <= 0 {
		return 0, nil, ErrBadModulus
	}
	for i, v := range values {
		if v < 0 || v >= modulus {
			return 0, nil, fmt.Errorf("%w: party %d value %d", ErrValueRange, i, v)
		}
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	// Split each value into random shares summing to it modulo m.
	shares := make([][]int64, segments)
	for s := range shares {
		shares[s] = make([]int64, n)
	}
	for i, v := range values {
		rest := v
		for s := 0; s < segments-1; s++ {
			sh := rng.Int63n(modulus)
			shares[s][i] = sh
			rest = ((rest-sh)%modulus + modulus) % modulus
		}
		shares[segments-1][i] = rest
	}

	run := borrow(w)
	defer run.release()
	r := run.ring()
	if plan != nil {
		// The plane binds to the run's registry, installed above.
		prevPlane := w.Faults()
		w.SetFaults(netsim.NewFaultPlane(*plan))
		defer w.SetFaults(prevPlane)
		r.link = netsim.NewLink(w, netsim.Reliability{})
	}
	total := int64(0)
	for s := 0; s < segments; s++ {
		// Rotate the ring start per segment.
		sum, err := r.walk(shares[s], s, modulus, rng.Int63n(modulus))
		if err != nil {
			return 0, run.trace(), err
		}
		total = (total + sum) % modulus
	}
	return total, run.trace(), nil
}

// ring is the wire the secure-sum walks of one run cross: the hops cross
// the reliable link when a fault plan is armed, and when the wire had an
// observer, the run records each walk as one causal chain of spans.
type ring struct {
	w    transport.Transport
	link *netsim.Link  // nil on a clean wire
	reg  *obs.Registry // the run's registry, nil when nobody observed the wire
}

// walk runs the ring once over in, starting at party start: the initiator
// masks its input with mask, each party in turn adds its own, and the
// initiator removes the mask from what comes back.
func (r ring) walk(in []int64, start int, modulus, mask int64) (int64, error) {
	n := len(in)
	// The ring walk is inherently sequential, so the trace chains each hop
	// span under the previous one: the critical path of the protocol IS the
	// ring, and the exported trace shows it as one dependency chain.
	var tracer *obs.Tracer
	var root *obs.Span
	if r.reg != nil {
		tracer = r.reg.Tracer()
		root = tracer.Start("smc/secure-sum-ring", nil)
		root.Annotate("parties", strconv.Itoa(n))
		defer root.End()
	}
	prevCtx := root.Context()
	hop := func(from, to int, running int64) (int64, error) {
		var payload [8]byte
		binary.LittleEndian.PutUint64(payload[:], uint64(running))
		e := netsim.Envelope{
			From:    party((from + start) % n),
			To:      party((to + start) % n),
			Kind:    "ring",
			Payload: payload[:],
			Ctx:     prevCtx,
		}
		var got int64
		inCtx := prevCtx
		if r.link == nil {
			got = int64(binary.LittleEndian.Uint64(r.w.Send(e).Payload))
		} else {
			delivered := false
			cost, err := r.link.TransferCost(e, func(in netsim.Envelope) {
				got = int64(binary.LittleEndian.Uint64(in.Payload))
				inCtx = in.Ctx
				delivered = true
			})
			if err != nil {
				return 0, err
			}
			// The ring is serial: a hop's backoff delays the whole walk.
			if r.reg != nil {
				r.reg.Clock().Advance(cost.Backoff)
			}
			if !delivered {
				return 0, fmt.Errorf("smc: ring hop %s→%s acked but not delivered", e.From, e.To)
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

	running := (in[start%n] + mask) % modulus
	for i := 1; i < n; i++ {
		got, err := hop(i-1, i, running)
		if err != nil {
			return 0, err
		}
		running = (got + in[(i+start)%n]) % modulus
	}
	got, err := hop(n-1, 0, running)
	if err != nil {
		return 0, err
	}
	return ((got-mask)%modulus + modulus) % modulus, nil
}
