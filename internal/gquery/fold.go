package gquery

import (
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// foldJob describes one token-fold work item: which worker token runs
// it, the wire kind of the SSI → token dispatch leg, and how the chunk
// is labeled in the trace.
type foldJob struct {
	worker string
	kind   string
	label  string
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
func (tp *transport) runFold(job foldJob, envs []netsim.Envelope, proc envProcessor, sealFn sealPartialFn) chunkOutcome {
	disp := tp.ro.span("ssi-dispatch", PhasePartition, "chunk", job.label, "worker", job.worker)
	defer disp.End()
	var fold *obs.Span
	defer func() { fold.End() }()
	out := chunkOutcome{worker: job.worker, partial: partialAgg{Aggs: map[string]GroupAgg{}}}
	rcv := func(e netsim.Envelope) {
		if fold == nil {
			fold = tp.ro.remoteSpan(PhaseTokenFold, e.Ctx, "chunk", job.label, "worker", job.worker)
		}
		proc(&out, e)
	}
	ctx := disp.Context()
	for _, env := range envs {
		sendErr := tp.send(netsim.Envelope{From: "ssi", To: job.worker, Kind: job.kind, Payload: env.Payload, Ctx: ctx}, rcv)
		if sendErr != nil && out.err == nil {
			out.err = sendErr
		}
		if out.err != nil {
			return out
		}
	}
	if sealFn == nil {
		return out
	}
	// Worker → SSI → merge plane: the partial rides sealed (and, for the
	// protocols that verify it downstream, non-deterministically
	// encrypted).
	payload, err := sealFn(&out)
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

// tupleProcessor folds one secure-agg envelope: verify the MAC, decrypt,
// decode, accumulate (fakes contribute to the checksum only).
func tupleProcessor(kr *Keyring) envProcessor {
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
		t, err := decodeTuplePlain(pt)
		if err != nil {
			out.err = err
			return
		}
		out.partial.IDSum += t.ID
		out.partial.Count++
		if !t.Fake {
			out.partial.Aggs[t.Group] = out.partial.Aggs[t.Group].Fold(t.Value)
		}
	}
}

// leafPartial is one level-0 input of the tree reduce: a worker token's
// partial, its wire form, and when — in fold-phase-relative virtual
// time — it becomes available to a parent.
type leafPartial struct {
	partial partialAgg
	sealed  []byte
	worker  string
	end     time.Duration
}

// foldOutcomes folds per-token outcomes into stats in deterministic
// chunk order, returning both the flat partial list and the leaf inputs
// a tree reduce needs. A leaf becomes available when its worker has
// finished every chunk it was given: a token that folds several chunks
// folds them one after another.
func (tp *transport) foldOutcomes(outs []chunkOutcome, stats *RunStats) ([]partialAgg, []leafPartial, error) {
	var partials []partialAgg
	leaves := make([]leafPartial, 0, len(outs))
	for _, out := range outs {
		stats.MACFailures += out.macFailures
		if out.macFailures > 0 {
			stats.Detected = true
		}
		if out.err != nil {
			return nil, nil, out.err
		}
		stats.WorkerCalls++
		partials = append(partials, out.partial)
		leaves = append(leaves, leafPartial{
			partial: out.partial,
			sealed:  out.sealed,
			worker:  out.worker,
			end:     tp.elapsed(out.worker, false),
		})
	}
	return partials, leaves, nil
}
