// Deterministic fault injection for the simulated wire. The tutorial's
// Part III protocols must survive an unreliable transport (and a weakly
// malicious SSI); this plane lets tests and benchmarks subject every
// envelope kind to seeded drop/duplicate/delay/reorder schedules that are
// fully reproducible: a fault decision is a pure function of the seed and
// the envelope's content, so the same schedule replays identically no
// matter how a parallel token fleet interleaves its sends.
package netsim

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"pds/internal/obs"
)

// FaultSpec gives the per-envelope fault probabilities for one envelope
// kind. The probabilities are disjoint (drop wins over duplicate, and so
// on); their sum must not exceed 1.
type FaultSpec struct {
	Drop      float64 // the envelope vanishes on the wire
	Duplicate float64 // the envelope arrives twice, back to back
	Delay     float64 // the envelope is withheld until the next Flush (phase barrier)
	Reorder   float64 // the envelope swaps places with the next one of its flow (kind + destination)
}

// Total returns the combined fault probability.
func (s FaultSpec) Total() float64 { return s.Drop + s.Duplicate + s.Delay + s.Reorder }

// FaultPlan is a seeded, per-kind fault schedule. A zero plan is a clean
// wire; kinds without an explicit entry use Default.
type FaultPlan struct {
	Seed    int64
	Default FaultSpec
	PerKind map[string]FaultSpec
}

func (p FaultPlan) spec(kind string) FaultSpec {
	if s, ok := p.PerKind[kind]; ok {
		return s
	}
	return p.Default
}

// FaultStats counts the faults a plane injected.
type FaultStats struct {
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Reordered  int64
}

// Total returns the number of injected faults.
func (s FaultStats) Total() int64 { return s.Dropped + s.Duplicated + s.Delayed + s.Reordered }

// HashUniform maps a seed plus length-prefixed byte fields to a uniform
// float64 in [0,1) through SHA-256 — the deterministic randomness source
// shared by the fault plane and the weakly-malicious SSI, chosen over a
// stateful PRNG so decisions do not depend on evaluation order.
func HashUniform(seed int64, fields ...[]byte) float64 {
	d := newDraw(seed)
	for _, f := range fields {
		d.b = appendField(d.b, f)
	}
	return d.uniform()
}

// draw is one hash draw in the making: the seed and the length-prefixed
// fields are laid out in a pooled scratch buffer and hashed in one pass.
type draw struct{ b []byte }

var drawPool = sync.Pool{New: func() any { return &draw{b: make([]byte, 0, 512)} }}

func newDraw(seed int64) *draw {
	d := drawPool.Get().(*draw)
	d.b = binary.LittleEndian.AppendUint64(d.b[:0], uint64(seed))
	return d
}

func appendField[T string | []byte](b []byte, f T) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(f)))
	return append(b, f...)
}

// uniform hashes the layout, returns the scratch to the pool and maps the
// digest's first 53 bits to [0,1).
func (d *draw) uniform() float64 {
	sum := sha256.Sum256(d.b)
	drawPool.Put(d)
	return float64(binary.LittleEndian.Uint64(sum[:8])>>11) / float64(1<<53)
}

// fault outcomes, in interval order.
const (
	faultNone = iota
	faultDrop
	faultDuplicate
	faultDelay
	faultReorder
)

// FaultPlane applies a FaultPlan to envelopes routed through
// Network.Deliver. Identical envelopes draw identical decisions (the draw
// hashes kind, endpoints and payload); the reliability layer's frames
// embed a sequence and attempt number, so every retransmission draws
// fresh.
type FaultPlane struct {
	plan FaultPlan
	obsv atomic.Pointer[netObserver] // bound by Network.SetFaults / SetObserver

	mu    sync.Mutex
	held  []Envelope        // delayed until the next Flush
	swap  map[flow]Envelope // reordered: released after the next transmit of the same flow
	stats FaultStats
}

// flow scopes a reorder slot: one ARQ link runs per (kind, destination).
type flow struct{ kind, to string }

// NewFaultPlane builds a plane for the plan.
func NewFaultPlane(plan FaultPlan) *FaultPlane {
	return &FaultPlane{plan: plan, swap: map[flow]Envelope{}}
}

// Plan returns the schedule the plane applies.
func (fp *FaultPlane) Plan() FaultPlan { return fp.plan }

// BindObserver mirrors the plane's fault decisions into reg (nil
// detaches). Network.SetFaults/SetObserver bind the in-process network's
// observer automatically; out-of-process transports that arm a plane
// client-side call this to keep fault accounting identical across
// substrates.
func (fp *FaultPlane) BindObserver(reg *obs.Registry) {
	fp.obsv.Store(newNetObserver(reg))
}

// Stats returns a snapshot of the injected-fault counters.
func (fp *FaultPlane) Stats() FaultStats {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.stats
}

// decide draws the (deterministic) fault outcome for one envelope.
func (fp *FaultPlane) decide(e Envelope) int {
	s := fp.plan.spec(e.Kind)
	if s.Total() <= 0 {
		return faultNone
	}
	d := newDraw(fp.plan.Seed)
	d.b = appendField(d.b, "netsim-fault")
	d.b = appendField(d.b, e.Kind)
	d.b = appendField(d.b, e.From)
	d.b = appendField(d.b, e.To)
	d.b = appendField(d.b, e.Payload)
	u := d.uniform()
	switch {
	case u < s.Drop:
		return faultDrop
	case u < s.Drop+s.Duplicate:
		return faultDuplicate
	case u < s.Drop+s.Duplicate+s.Delay:
		return faultDelay
	case u < s.Total():
		return faultReorder
	default:
		return faultNone
	}
}

// Transmit applies the plan to one envelope and returns the copies that
// arrive now — zero for a dropped or withheld envelope, two for a
// duplicated one, possibly including an earlier reorder-withheld envelope
// of the same kind. Network.Deliver calls it for the in-process wire;
// out-of-process transports call it before frames leave the sending node,
// so the seeded schedule stays a pure function of envelope content on
// every substrate.
func (fp *FaultPlane) Transmit(e Envelope) []Envelope {
	out, n := fp.transmit(e)
	return append([]Envelope(nil), out[:n]...)
}

// transmit applies the plan to one envelope and returns the n <= 3 copies
// that arrive now. A pending reordered envelope of the same flow — same
// kind, same destination — is released after the current one: the two swap
// places on the wire. The flow keying matters: a sharded deployment runs
// one ARQ link per (kind, destination), and releasing a withheld frame
// into a different flow's receiver would collide sequence spaces and
// spuriously ack a frame that was never delivered.
func (fp *FaultPlane) transmit(e Envelope) (out [3]Envelope, n int) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	reordered := false
	switch fp.decide(e) {
	case faultDrop:
		fp.stats.Dropped++
		fp.obsv.Load().fault("drop", e.Kind)
	case faultDuplicate:
		fp.stats.Duplicated++
		fp.obsv.Load().fault("duplicate", e.Kind)
		out[0], out[1], n = e, e, 2
	case faultDelay:
		fp.stats.Delayed++
		fp.obsv.Load().fault("delay", e.Kind)
		fp.held = append(fp.held, e)
	case faultReorder:
		fp.stats.Reordered++
		fp.obsv.Load().fault("reorder", e.Kind)
		reordered = true
	default:
		out[0], n = e, 1
	}
	f := flow{e.Kind, e.To}
	if prev, ok := fp.swap[f]; ok {
		out[n] = prev
		n++
		delete(fp.swap, f)
	}
	if reordered {
		fp.swap[f] = e
	}
	return out, n
}

// Flush releases every withheld envelope (delayed ones and reorder slots
// that never saw a successor) in a seeded content-hash order — late AND
// shuffled, the worst legal schedule. rcv runs outside the plane's lock,
// so it may route envelopes back through the network.
func (fp *FaultPlane) Flush(rcv func(Envelope)) {
	type keyed struct {
		u float64
		e Envelope
	}
	fp.mu.Lock()
	pending := make([]keyed, 0, len(fp.held)+len(fp.swap))
	for _, e := range fp.held {
		pending = append(pending, keyed{e: e})
	}
	fp.held = nil
	for k, e := range fp.swap {
		pending = append(pending, keyed{e: e})
		delete(fp.swap, k)
	}
	fp.mu.Unlock()
	// One hash per envelope, not one per comparison.
	for i := range pending {
		e := &pending[i].e
		pending[i].u = HashUniform(fp.plan.Seed, []byte("netsim-flush"), []byte(e.Kind), e.Payload)
	}
	slices.SortStableFunc(pending, func(a, b keyed) int { return cmp.Compare(a.u, b.u) })
	for _, p := range pending {
		rcv(p.e)
	}
}
