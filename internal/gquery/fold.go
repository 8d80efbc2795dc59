package gquery

import (
	"encoding/binary"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// foldJob is one token-fold work item: which worker token runs it, the
// wire kind of the SSI → token dispatch leg, how the chunk is labeled in
// the trace, the envelopes it carries, how the token folds each of them,
// and how its partial goes back over the wire.
type foldJob struct {
	worker string
	kind   string
	label  string
	envs   []netsim.Envelope
	fold   envProcessor
	seal   sealPartialFn
}

// chunkOutcome is what a token's fold produced: its partial, the
// partial's wire form (nil when it stayed at the token), and the
// integrity failures and hard error it met.
type chunkOutcome struct {
	partial     partialAgg
	sealed      []byte
	worker      string
	macFailures int
	err         error
}

// envProcessor folds one delivered envelope into the outcome. It
// reports integrity failures through out.macFailures and hard decode
// errors through out.err; runFold stops the chunk on the latter.
type envProcessor func(out *chunkOutcome, e netsim.Envelope)

// sealPartialFn builds the wire payload of the token's partial upload;
// nil skips the upload (e.g. the noise protocol's forged batch, whose
// partial only rides locally in the flat topology).
type sealPartialFn func(out *chunkOutcome) ([]byte, error)

// runFold executes the per-token fold step every protocol and topology
// shares. The dispatch span is the "SSI partition message" handing the
// chunk to its worker: every wire frame of the chunk carries its
// context, so the token's fold span attaches under it even across
// retransmits and duplicated deliveries. Every leg is charged to the
// worker's timeline, which is where the tree scheduler places the leaf.
func (tp *transport) runFold(job foldJob) chunkOutcome {
	disp := tp.ro.span("ssi-dispatch", PhasePartition, "chunk", job.label, "worker", job.worker)
	defer disp.End()
	var fold *obs.Span
	defer func() { fold.End() }()
	out := chunkOutcome{worker: job.worker, partial: partialAgg{Aggs: map[string]GroupAgg{}}}
	rcv := func(e netsim.Envelope) {
		if fold == nil {
			fold = tp.ro.remoteSpan(PhaseTokenFold, e.Ctx, "chunk", job.label, "worker", job.worker)
		}
		job.fold(&out, e)
	}
	ctx := disp.Context()
	for _, env := range job.envs {
		sendErr := tp.send(netsim.Envelope{From: "ssi", To: job.worker, Kind: job.kind, Payload: env.Payload, Ctx: ctx}, rcv)
		if sendErr != nil && out.err == nil {
			out.err = sendErr
		}
		if out.err != nil {
			return out
		}
	}
	if job.seal == nil {
		return out
	}
	// Worker → SSI → merge plane: the partial rides sealed (and, for the
	// protocols that verify it downstream, non-deterministically
	// encrypted).
	payload, err := job.seal(&out)
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

// sealedPartial is the sealPartialFn of the protocols whose partials are
// verified downstream: encode, encrypt non-deterministically, MAC.
func sealedPartial(kr *Keyring) sealPartialFn {
	return func(out *chunkOutcome) ([]byte, error) {
		return sealNonDet(kr, nil, encodePartial(out.partial))
	}
}

// tupleFold is the token's tuple processor, one for every protocol:
// verify the MAC, decrypt the tuple ciphertext ct finds in the sealed
// body, decode, and fold the value under key — or under the tuple's own
// group when key is empty. Fakes count toward the checksum only.
func tupleFold(kr *Keyring, ct func(body []byte) []byte, key string) envProcessor {
	return func(out *chunkOutcome, e netsim.Envelope) {
		body, err := open(kr, e.Payload)
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

// mergeSealed is the merging token's processor — an interior tree token
// or the streaming run's final token: verify, decrypt and decode a
// sealed partial, and merge it into out.partial.
func mergeSealed(kr *Keyring) envProcessor {
	return func(out *chunkOutcome, e netsim.Envelope) {
		ct, err := open(kr, e.Payload)
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
