package gquery

import (
	"strconv"

	"pds/internal/netsim"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// runSecureAgg executes a GROUP BY aggregate with the secure-aggregation
// protocol (non-deterministic encryption):
//
//	collection : every PDS uploads Enc_nd(id|group|value) + MAC;
//	partition  : the SSI splits the blind ciphertext set into chunks;
//	aggregation: each chunk goes to a (participant) token that decrypts,
//	             partially aggregates, and returns a sealed partial;
//	merge      : a final token merges partials and verifies the tuple-id
//	             checksum, detecting drops, duplicates and forgeries.
//
// The SSI observes only ciphertexts: every payload is distinct, so no
// grouping information leaks. The aggregation phase runs over cfg.workers
// concurrent tokens; partials are merged in chunk order, so Result and
// RunStats are identical to the serial run on the same inputs — and, the
// wire being pluggable, identical across substrates for the same seed.
func runSecureAgg(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring, chunkSize int, cfg config) (Result, RunStats, error) {
	var stats RunStats
	if len(parts) == 0 {
		return nil, stats, ErrNoParticipants
	}
	if chunkSize < 1 {
		return nil, stats, ErrBadChunkSize
	}
	tp := newTransport(w, cfg, "secure-agg")
	defer tp.close()

	// Collection phase.
	for _, p := range parts {
		for seq, t := range p.Tuples {
			payload, err := sealTuple(kr, nil, tuplePlain{
				ID:    ssi.HashID(p.ID, seq),
				Group: t.Group,
				Value: t.Value,
			})
			if err != nil {
				return nil, stats, err
			}
			if err := tp.send(netsim.Envelope{
				From: p.ID, To: srv.Dest(p.ID), Kind: "tuple", Payload: payload,
			}, srv.Receive); err != nil {
				return nil, stats, err
			}
		}
	}
	// Phase barrier: delayed uploads surface before partitioning.
	tp.barrier(srv.Receive)
	tp.phase(PhasePartition)
	srv.BindTrace(tp.ro.curCtx())

	// Partition phase (where a weakly-malicious SSI misbehaves).
	chunks, err := srv.Partition(chunkSize)
	if err != nil {
		return nil, stats, err
	}
	stats.Chunks = len(chunks)
	tp.phase(PhaseTokenFold)

	// Aggregation phase: the token fleet processes chunks independently
	// through the shared fold step (fold.go).
	outs := make([]chunkOutcome, len(chunks))
	cfg.forEachChunk(len(chunks), func(i int) {
		outs[i] = tp.runFold(
			foldJob{worker: parts[i%len(parts)].ID, kind: "chunk", label: strconv.Itoa(i)},
			chunks[i], tupleProcessor(kr), sealedPartial(kr))
	})
	partials, leaves, err := tp.foldOutcomes(outs, &stats)
	if err != nil {
		return nil, stats, err
	}

	if cfg.topology.IsTree() {
		// Hierarchical merge: partials climb the fan-in tree; the querier
		// receives a single root partial.
		if partials, err = tp.reduceTree(kr, parts, leaves, cfg.topology.Arity(), &stats); err != nil {
			return nil, stats, err
		}
	} else {
		// Flat merge phase at the single final token.
		tp.phase(PhaseMerge)
		finalTo := parts[0].ID
		for range partials {
			if err := tp.send(netsim.Envelope{From: "ssi", To: finalTo, Kind: "merge", Payload: nil}, nil); err != nil {
				return nil, stats, err
			}
		}
	}
	tp.barrier(nil)
	wantID, wantCount := expectedChecksum(parts, nil)
	res, detected := mergePartials(partials, wantID, wantCount)
	if detected {
		stats.Detected = true
	}
	tp.finish(&stats)
	if stats.Detected {
		return res, stats, detectionError("secure-agg", stats)
	}
	return res, stats, nil
}
