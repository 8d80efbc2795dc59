package gquery

import (
	"fmt"

	"pds/internal/netsim"
	tnet "pds/internal/transport"
)

// ParticipantSource yields participants one at a time. Sources let a run
// visit a fleet far larger than memory: the engine never holds more than
// the fold plane's in-flight window of chunks, however many participants
// Next produces.
type ParticipantSource interface {
	// Next returns the next participant, or ok=false when the fleet is
	// exhausted. Next is called from a single goroutine.
	Next() (Participant, bool)
}

type sliceSource struct {
	parts []Participant
	i     int
}

// SliceSource adapts an in-memory participant slice to ParticipantSource.
func SliceSource(parts []Participant) ParticipantSource {
	return &sliceSource{parts: parts}
}

func (s *sliceSource) Next() (Participant, bool) {
	if s.i >= len(s.parts) {
		return Participant{}, false
	}
	p := s.parts[s.i]
	s.i++
	return p, true
}

// runSecureAgg executes a GROUP BY aggregate with the secure-aggregation
// protocol (non-deterministic encryption):
//
//	collection : every PDS uploads Enc_nd(id|group|value) + MAC;
//	partition  : the SSI cuts the blind ciphertext stream into chunks as
//	             the uploads arrive;
//	aggregation: each chunk goes, as soon as it fills, to a token of its
//	             own that decrypts and partially aggregates it;
//	merge      : the SSI relays the sealed partials up the fan-in tree;
//	             each merging token verifies every one, and the root
//	             checks the tuple-id checksum, detecting drops,
//	             duplicates and forgeries.
//
// The SSI observes only ciphertexts: every payload is distinct, so no
// grouping information leaks. Collection and aggregation overlap, so the
// run holds at most the fold plane's window of chunks, and partials are
// merged in chunk order, so Result and RunStats are identical for every
// pool size on the same inputs — and, the wire being pluggable, identical
// across substrates for the same seed.
func runSecureAgg(w tnet.Transport, srv Infra, src ParticipantSource, kr *Keyring, chunkSize int, cfg config) (Result, RunStats, error) {
	if src == nil {
		return nil, RunStats{}, fmt.Errorf("gquery: secure-agg needs a participant source")
	}
	if chunkSize < 1 {
		return nil, RunStats{}, ErrBadChunkSize
	}
	r := newRun(w, srv, kr, cfg, "secure-agg")
	defer r.tp.close()

	plane := r.foldPlane()
	fold := tupleFold(kr, wholeBody, "")
	err := r.collect(src, chunkSize, secureAggSeal(kr), func(chunk []netsim.Envelope) {
		plane.submit(foldJob{kind: "chunk", envs: chunk, fold: fold})
	}, plane.wait)
	r.stats.Chunks = plane.n
	return r.fold(plane, err)
}

// secureAggSeal uploads each tuple as Enc_nd(id|group|value) + MAC: every
// payload is distinct, so the SSI can only partition blindly.
func secureAggSeal(kr *Keyring) sealFn {
	return eachTuple(func(t Tuple) int { return tupleRecordLen(0, t.Group) },
		func(dst []byte, id uint64, t Tuple) ([]byte, error) {
			return sealTuple(dst, kr, nil, tuplePlain{ID: id, Group: t.Group, Value: t.Value})
		})
}
