package gquery

import (
	"strconv"

	tnet "pds/internal/transport"
)

// runSecureAgg executes a GROUP BY aggregate with the secure-aggregation
// protocol (non-deterministic encryption):
//
//	collection : every PDS uploads Enc_nd(id|group|value) + MAC;
//	partition  : the SSI splits the blind ciphertext set into chunks;
//	aggregation: each chunk goes to a (participant) token that decrypts,
//	             partially aggregates, and returns a sealed partial;
//	merge      : the SSI relays the sealed partials up the fan-in tree;
//	             each merging token verifies every one, and the root
//	             checks the tuple-id checksum, detecting drops,
//	             duplicates and forgeries.
//
// The SSI observes only ciphertexts: every payload is distinct, so no
// grouping information leaks. The aggregation phase runs over cfg.workers
// concurrent tokens; partials are merged in chunk order, so Result and
// RunStats are identical to the serial run on the same inputs — and, the
// wire being pluggable, identical across substrates for the same seed.
func runSecureAgg(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring, chunkSize int, cfg config) (Result, RunStats, error) {
	if len(parts) == 0 {
		return nil, RunStats{}, ErrNoParticipants
	}
	if chunkSize < 1 {
		return nil, RunStats{}, ErrBadChunkSize
	}
	r := newRun(w, srv, parts, kr, cfg, "secure-agg")
	defer r.tp.close()

	chunks, err := r.collect(chunkSize, secureAggSeal(kr))
	if err != nil {
		return nil, r.stats, err
	}
	r.stats.Chunks = len(chunks)
	fold := tupleFold(kr, wholeBody, "")
	jobs := make([]foldJob, len(chunks))
	for i, chunk := range chunks {
		jobs[i] = foldJob{kind: "chunk", label: strconv.Itoa(i), envs: chunk, fold: fold}
	}
	leaves, err := r.foldJobs(jobs)
	if err != nil {
		return nil, r.stats, err
	}
	partials, err := r.merge(leaves)
	if err != nil {
		return nil, r.stats, err
	}
	wantID, wantCount := expectedChecksum(parts, nil)
	return r.verdict(partials, wantID, wantCount)
}

// secureAggSeal uploads each tuple as Enc_nd(id|group|value) + MAC: every
// payload is distinct, so the SSI can only partition blindly.
func secureAggSeal(kr *Keyring) sealFn {
	return eachTuple(func(t Tuple) int { return tupleRecordLen(0, t.Group) },
		func(dst []byte, id uint64, t Tuple) ([]byte, error) {
			return sealTuple(dst, kr, nil, tuplePlain{ID: id, Group: t.Group, Value: t.Value})
		})
}
