package gquery

import (
	"encoding/binary"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// foldJob is one token-fold work item: which worker token runs it, the
// wire kind of the SSI → token dispatch leg, how the chunk is labeled in
// the trace, the envelopes it carries and how the token folds each of
// them.
type foldJob struct {
	worker string
	kind   string
	label  string
	envs   []netsim.Envelope
	fold   envProcessor
}

// chunkOutcome is what a token's fold produced: its partial, the
// partial's wire form (nil while it stays at the token), and the
// integrity failures and hard error it met.
type chunkOutcome struct {
	partial     partialAgg
	sealed      []byte
	worker      string
	macFailures int
	err         error
}

// envProcessor folds one delivered record — a sealed tuple or a sealed
// partial — into the outcome. It reports integrity failures through
// out.macFailures and hard decode errors through out.err; runFold stops
// the chunk on the latter.
type envProcessor func(out *chunkOutcome, payload []byte)

// runFold executes the per-token fold step every protocol and topology
// shares. The dispatch span is the "SSI partition message" handing the
// chunk to its worker as one frame: the frame carries its context, so
// the token's fold span attaches under it even across retransmits and
// duplicated deliveries. The token then uploads its partial, sealed, for
// the merge plane. Every leg is charged to the worker's timeline, which
// is where the tree scheduler places the leaf.
func (r *run) runFold(job foldJob) chunkOutcome {
	tp := r.tp
	disp := tp.ro.span("ssi-dispatch", PhasePartition, "chunk", job.label, "worker", job.worker)
	defer disp.End()
	var fold *obs.Span
	defer func() { fold.End() }()
	out := chunkOutcome{worker: job.worker, partial: partialAgg{Aggs: map[string]GroupAgg{}}}
	rcv := func(e netsim.Envelope) {
		fold = tp.ro.remoteSpan(PhaseTokenFold, e.Ctx, "chunk", job.label, "worker", job.worker)
		foldFrame(&out, job.fold, e.Payload)
	}
	frame := recordFrame(job.envs, envPayload)
	err := tp.send(netsim.Envelope{From: "ssi", To: job.worker, Kind: job.kind, Payload: *frame, Ctx: disp.Context()}, rcv)
	chunkFrames.Put(frame)
	if err != nil && out.err == nil {
		out.err = err
	}
	if out.err != nil {
		return out
	}
	// Worker → SSI → merge plane: the partial rides sealed and
	// non-deterministically encrypted, for the merging token to verify.
	payload, err := sealNonDet(r.kr, nil, encodePartial(out.partial))
	if err != nil {
		out.err = err
		return out
	}
	out.sealed = payload
	if err := tp.send(netsim.Envelope{From: job.worker, To: "ssi", Kind: "partial", Payload: payload, Ctx: fold.Context()}, nil); err != nil && out.err == nil {
		out.err = err
	}
	return out
}

// foldFrame is the token's walk over a dispatch frame: every record is
// folded in partition order until a hard error. A frame that does not
// split into whole records is one more MAC failure, so a truncated or
// rewritten frame ends the run in a detection, never in a silently
// partial fold.
func foldFrame(out *chunkOutcome, fold envProcessor, frame []byte) {
	err := eachRecord(frame, func(rec []byte) bool {
		fold(out, rec)
		return out.err == nil
	})
	if err != nil {
		out.macFailures++
	}
}

// tupleFold is the token's tuple processor, one for every protocol:
// verify the MAC, decrypt the tuple ciphertext ct finds in the sealed
// body, decode, and fold the value under key — or under the tuple's own
// group when key is empty. Fakes count toward the checksum only.
func tupleFold(kr *Keyring, ct func(body []byte) []byte, key string) envProcessor {
	return func(out *chunkOutcome, payload []byte) {
		body, err := open(kr, payload)
		if err != nil {
			out.macFailures++
			return
		}
		pt, err := kr.NonDet.Decrypt(ct(body))
		if err != nil {
			out.macFailures++
			return
		}
		t, err := decodeTuplePlain(pt)
		if err != nil {
			out.err = err
			return
		}
		out.partial.IDSum += t.ID
		out.partial.Count++
		if t.Fake {
			return
		}
		g := key
		if g == "" {
			g = t.Group
		}
		out.partial.Aggs[g] = out.partial.Aggs[g].Fold(t.Value)
	}
}

// Where each protocol's token finds the tuple ciphertext in a sealed
// upload body: secure-agg seals the tuple ciphertext alone, noise
// prefixes u16 gctLen | Enc_det(group), histogram the clear u16 bucket id.
func wholeBody(body []byte) []byte     { return body }
func afterGroupCT(body []byte) []byte  { return body[2+int(binary.LittleEndian.Uint16(body[:2])):] }
func afterBucketID(body []byte) []byte { return body[2:] }

// mergeSealed is the merging token's processor, one record of its
// "tree-partial" frame at a time: verify, decrypt and decode a sealed
// partial, and merge it into out.partial.
func mergeSealed(kr *Keyring) envProcessor {
	return func(out *chunkOutcome, payload []byte) {
		ct, err := open(kr, payload)
		if err != nil {
			out.macFailures++
			return
		}
		pt, err := kr.NonDet.Decrypt(ct)
		if err != nil {
			out.macFailures++
			return
		}
		p, err := decodePartial(pt)
		if err != nil {
			out.err = err
			return
		}
		out.partial.IDSum += p.IDSum
		out.partial.Count += p.Count
		for g, a := range p.Aggs {
			out.partial.Aggs[g] = out.partial.Aggs[g].Merge(a)
		}
	}
}
