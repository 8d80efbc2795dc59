package gquery

import (
	"pds/internal/netsim"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// run is one Part III protocol run. Every [TNP14] protocol has the same
// shape — the PDSs upload sealed tuples, the untrusted SSI partitions
// them, worker tokens fold the chunks, and a final token merges the
// partials and checks the tuple-id checksum — and run owns every step of
// it: collect → foldJobs → merge → verdict. A protocol supplies only
// what is its own: how a PDS seals its tuples (a sealFn), how the SSI's
// output is cut into token jobs, and where the token finds the tuple
// ciphertext (tupleFold's ct).
type run struct {
	tp       *transport
	srv      Infra
	parts    []Participant
	kr       *Keyring
	cfg      config
	protocol string // named by the detection abort
	stats    RunStats
	receive  func(netsim.Envelope) // the SSI end of an upload leg
}

// newRun opens the run's wire and observability epoch; the caller
// defers r.tp.close().
func newRun(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring, cfg config, protocol string) *run {
	r := &run{tp: newTransport(w, cfg, protocol), srv: srv, parts: parts, kr: kr, cfg: cfg, protocol: protocol}
	inbox := func(e netsim.Envelope) bool {
		srv.Receive(e)
		return true
	}
	r.receive = func(frame netsim.Envelope) { EachUpload(frame, inbox) }
	return r
}

// sealFn seals one participant's uploads into its upload frame, one
// record per tuple in upload order. The frame is sized before the first
// record is sealed, so it is allocated once.
type sealFn func(p Participant) ([]byte, error)

// eachTuple is the sealFn of the protocols that upload every tuple
// exactly once, under its tuple id: size gives a tuple's record length,
// seal appends its record.
func eachTuple(size func(t Tuple) int, seal func(dst []byte, id uint64, t Tuple) ([]byte, error)) sealFn {
	return func(p Participant) ([]byte, error) {
		n := 0
		for _, t := range p.Tuples {
			n += size(t)
		}
		frame := make([]byte, 0, n)
		for seq, t := range p.Tuples {
			var err error
			if frame, err = seal(frame, ssi.HashID(p.ID, seq), t); err != nil {
				return nil, err
			}
		}
		return frame, nil
	}
}

// upload seals one participant's uploads and moves them to its SSI node
// as one frame; the SSI end splits it back into its inbox envelopes. A
// participant with nothing to upload sends nothing.
func (r *run) upload(seal sealFn, p Participant) error {
	frame, err := seal(p)
	if err != nil || len(frame) == 0 {
		return err
	}
	return r.tp.send(netsim.Envelope{From: p.ID, To: r.srv.Dest(p.ID), Kind: "tuple", Payload: frame}, r.receive)
}

// collect is the collection and partition phases: every participant's
// sealed uploads reach the SSI, delayed uploads surface at the phase
// barrier, and the SSI — where a weakly-malicious one misbehaves — cuts
// its inbox into chunks of at most chunkSize envelopes.
func (r *run) collect(chunkSize int, seal sealFn) ([][]netsim.Envelope, error) {
	for _, p := range r.parts {
		if err := r.upload(seal, p); err != nil {
			return nil, err
		}
	}
	r.tp.barrier(r.receive)
	r.tp.phase(PhasePartition)
	r.srv.BindTrace(r.tp.ro.curCtx())
	return r.srv.Partition(chunkSize)
}

// foldJobs is the token-fold phase: the fleet runs every job, job i on
// participant i mod n's token (the SSI enrolls tokens it knows), and the
// outcomes fold into the run's stats in job order, so any pool size
// gives the same run. Each outcome becomes a leaf for the merge; a leaf
// is available once its worker has finished every job it was given — a
// token that folds several chunks folds them one after another.
func (r *run) foldJobs(jobs []foldJob) ([]treeNode, error) {
	r.tp.phase(PhaseTokenFold)
	for i := range jobs {
		jobs[i].worker = r.parts[i%len(r.parts)].ID
	}
	outs := make([]chunkOutcome, len(jobs))
	r.cfg.forEachChunk(len(jobs), func(i int) { outs[i] = r.tp.runFold(jobs[i]) })
	leaves := make([]treeNode, 0, len(outs))
	for _, out := range outs {
		if err := r.tally(out); err != nil {
			return nil, err
		}
		leaves = append(leaves, treeNode{partial: out.partial, sealed: out.sealed, worker: out.worker, end: r.tp.elapsed(out.worker, false)})
	}
	return leaves, nil
}

// tally folds one token's outcome into the run's stats: a MAC failure
// marks the run detected, a hard error ends it, and a token whose
// partial went back over the wire made a worker call.
func (r *run) tally(out chunkOutcome) error {
	r.stats.MACFailures += out.macFailures
	if out.macFailures > 0 {
		r.stats.Detected = true
	}
	if out.err != nil {
		return out.err
	}
	if out.sealed != nil {
		r.stats.WorkerCalls++
	}
	return nil
}

// merge brings the leaves' partials to the final token: up the fan-in
// tree under Tree(k), or — under Flat(), where every partial is already
// at the final token — straight into the merge phase.
func (r *run) merge(leaves []treeNode) ([]partialAgg, error) {
	if r.cfg.topology.IsTree() {
		return r.reduceTree(leaves)
	}
	r.tp.phase(PhaseMerge)
	partials := make([]partialAgg, len(leaves))
	for i, lf := range leaves {
		partials[i] = lf.partial
	}
	return partials, nil
}

// verdict is the final token's check: delayed frames surface, the
// partials merge, and their tuple-id checksum must equal what a
// complete, untampered run sums to. The run ends with the exact result
// or a typed *DetectionError — never a silently wrong answer.
func (r *run) verdict(partials []partialAgg, wantID uint64, wantCount int64) (Result, RunStats, error) {
	r.tp.barrier(nil)
	res := Result{}
	var idSum uint64
	var count int64
	for _, p := range partials {
		idSum += p.IDSum
		count += p.Count
		for g, a := range p.Aggs {
			res[g] = res[g].Merge(a)
		}
	}
	if idSum != wantID || count != wantCount {
		r.stats.Detected = true
	}
	r.tp.finish(&r.stats)
	if r.stats.Detected {
		return res, r.stats, detectionError(r.protocol, r.stats)
	}
	return res, r.stats, nil
}
