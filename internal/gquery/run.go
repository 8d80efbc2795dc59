package gquery

import (
	"slices"
	"time"

	"pds/internal/netsim"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// run is one Part III protocol run. Every [TNP14] protocol has the same
// shape — the PDSs upload sealed tuples, the untrusted SSI partitions
// them as they stream in, worker tokens fold the partitions, and the
// partials climb a fan-in tree to a final token that checks the tuple-id
// checksum — and run owns every step of it: collect → fold plane →
// verdict. A protocol supplies only what is its own: how a PDS seals its
// tuples (a sealFn), how the SSI's output is cut into token jobs, and
// where the token finds the tuple ciphertext (tupleFold's ct).
type run struct {
	tp       *transport
	srv      Infra
	kr       *Keyring
	cfg      config
	protocol string // named by the detection abort
	stats    RunStats
	receive  func(netsim.Envelope) // the SSI end of an upload leg

	// What a complete, untampered run sums to: the querier adds each
	// PDS's tuple ids as the PDS seals its frame, so it never needs the
	// participant list.
	wantID    uint64
	wantCount int64
	// collectEnd is when the slowest PDS's upload ends: every PDS is its
	// own serial resource, so collection lasts as long as the longest
	// upload, not the fleet's sum.
	collectEnd time.Duration
	// frame is the upload buffer every PDS's frame is sealed into in
	// turn: nothing on the wire keeps a frame past its send.
	frame []byte
}

// unbounded is the chunk size of the protocols whose SSI groups the
// whole inbox itself: one chunk per SSI node.
const unbounded = 1 << 30

// newRun opens the run's wire and observability epoch; the caller
// defers r.tp.close().
func newRun(w tnet.Transport, srv Infra, kr *Keyring, cfg config, protocol string) *run {
	r := &run{tp: newTransport(w, cfg, protocol), srv: srv, kr: kr, cfg: cfg, protocol: protocol}
	inbox := func(e netsim.Envelope) bool {
		srv.Receive(e)
		return true
	}
	r.receive = func(frame netsim.Envelope) { EachUpload(frame, inbox) }
	return r
}

// sealFn seals one participant's uploads into its upload frame, appended
// to dst, one record per tuple in upload order, and reports how many
// records it sealed and the sum of their tuple ids, record seq's id being
// ssi.HashID(p.ID, seq). dst is grown to the frame's size before the
// first record is sealed, so it grows at most once.
type sealFn func(dst []byte, p Participant) (frame []byte, records int, idSum uint64, err error)

// eachTuple is the sealFn of the protocols that upload every tuple
// exactly once, under its tuple id: size gives a tuple's record length,
// seal appends its record.
func eachTuple(size func(t Tuple) int, seal func(dst []byte, id uint64, t Tuple) ([]byte, error)) sealFn {
	return func(dst []byte, p Participant) ([]byte, int, uint64, error) {
		n := 0
		for _, t := range p.Tuples {
			n += size(t)
		}
		frame := slices.Grow(dst, n)
		var idSum uint64
		for seq, t := range p.Tuples {
			id := ssi.HashID(p.ID, seq)
			var err error
			if frame, err = seal(frame, id, t); err != nil {
				return nil, 0, 0, err
			}
			idSum += id
		}
		return frame, len(p.Tuples), idSum, nil
	}
}

// upload seals one participant's uploads into the run's upload buffer,
// adds their tuple ids to the checksum, and moves them to its SSI node as
// one frame; the SSI end splits it back into its inbox envelopes, which
// it copies. A participant with nothing to upload sends nothing.
func (r *run) upload(seal sealFn, p Participant) error {
	frame, n, idSum, err := seal(r.frame[:0], p)
	if err != nil {
		return err
	}
	r.frame = frame
	r.wantID += idSum
	r.wantCount += int64(n)
	if n == 0 {
		return nil
	}
	err = r.tp.send(netsim.Envelope{From: p.ID, To: r.srv.Dest(p.ID), Kind: "tuple", Payload: frame}, r.receive)
	r.collectEnd = max(r.collectEnd, r.tp.elapsed(p.ID, true))
	return err
}

// collect is the collection phase with the SSI's streaming partition
// inside it: every participant's sealed uploads reach the SSI, which —
// where a weakly-malicious one misbehaves — cuts them into chunks of at
// most chunkSize envelopes and hands each to emit as it fills. Once the
// last PDS has uploaded, settle waits out the fold plane's frames in
// flight, delayed uploads surface at the phase barrier, and FinishStream
// emits what the SSI still holds.
func (r *run) collect(src ParticipantSource, chunkSize int, seal sealFn, emit func([]netsim.Envelope), settle func()) error {
	r.srv.BindTrace(r.tp.ro.curCtx())
	if err := r.srv.StartStream(chunkSize, emit); err != nil {
		return err
	}
	var err error
	n := 0
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		n++
		if err = r.upload(seal, p); err != nil {
			break
		}
	}
	if err == nil {
		settle()
		r.tp.barrier(r.receive)
	}
	if ferr := r.srv.FinishStream(); err == nil {
		err = ferr
	}
	if err == nil && n == 0 {
		err = ErrNoParticipants
	}
	return err
}

// collectAll is collect for the protocols whose SSI groups the whole
// inbox itself: it returns the inbox, emitted as one unbounded chunk per
// SSI node in node order.
func (r *run) collectAll(parts []Participant, seal sealFn) ([]netsim.Envelope, error) {
	var inbox []netsim.Envelope
	err := r.collect(SliceSource(parts), unbounded, seal, func(chunk []netsim.Envelope) {
		inbox = append(inbox, chunk...)
	}, func() {})
	return inbox, err
}

// tally folds one token's outcome into the run's stats: a MAC failure
// marks the run detected, and a hard error ends it.
func (r *run) tally(out chunkOutcome) error {
	r.stats.MACFailures += out.macFailures
	if out.macFailures > 0 {
		r.stats.Detected = true
	}
	return out.err
}

// fold ends a run once its fold plane holds every job: the plane drains,
// the tree folds up to its root while the collection phase is still open,
// and the phases are laid out on the paper's clock — collection ends at
// the slowest PDS upload, the streaming partition is a zero-width
// boundary, the tree tiles the fold phase, and the merge ends at the
// root. err is an error the run met before, which ends it here.
func (r *run) fold(p *foldPlane, err error) (Result, RunStats, error) {
	if perr := p.drain(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, r.stats, err
	}
	partials, end, err := p.tree.root()
	if err != nil {
		return nil, r.stats, err
	}
	r.tp.phasePar(PhasePartition, r.collectEnd)
	r.tp.phasePar(PhaseTokenFold, 0)
	p.tree.layout()
	r.tp.phasePar(PhaseMerge, end)
	return r.verdict(partials)
}

// verdict is the final token's check: delayed frames surface, the
// partials merge, and their tuple-id checksum must equal what a
// complete, untampered run sums to. The run ends with the exact result
// or a typed *DetectionError — never a silently wrong answer.
func (r *run) verdict(partials []partialAgg) (Result, RunStats, error) {
	r.tp.barrier(nil)
	res := Result{}
	var idSum uint64
	var count int64
	for _, p := range partials {
		idSum += p.IDSum
		count += p.Count
		for g, a := range p.Aggs {
			res[g] = res[g].Merge(*a)
		}
	}
	if idSum != r.wantID || count != r.wantCount {
		r.stats.Detected = true
	}
	r.tp.finish(&r.stats)
	if r.stats.Detected {
		return res, r.stats, detectionError(r.protocol, r.stats)
	}
	return res, r.stats, nil
}
