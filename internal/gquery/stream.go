package gquery

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"pds/internal/netsim"
	tnet "pds/internal/transport"
)

// ParticipantSource yields participants one at a time — the streaming
// counterpart of a []Participant. Sources let a run visit a fleet far
// larger than memory: the engine never holds more than the in-flight
// window of chunks, regardless of how many participants Next produces.
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

// SecureAggStream runs the secure-aggregation protocol over a participant
// stream with bounded memory: each PDS's upload frame flows through the
// SSI's streaming partition mode, each filled chunk is dispatched to a
// fold token as one frame as soon as it exists, and the sealed partials
// climb the fan-in tree as contiguous arity blocks complete, the same
// tree the batch run builds. At no point does the engine materialize the
// fleet's tuple set: at most 3·workers+3 filled chunks are unfolded at
// once — 2·workers+2 queued, one in each worker's hands, one the
// collector is blocked handing over. Partials are another matter under
// Flat(): its one interior token takes every partial in one frame, so the
// run holds one sealed partial per chunk until the root's frame; Tree(k)
// holds O(k·log n).
//
// The integrity contract is unchanged — the run returns the exact result
// or a typed DetectionError — but the fault plane is not supported:
// streaming overlaps collection with folding, and the fault plane's
// phase-barrier semantics (delayed envelopes surfacing at barriers)
// need the phases to be sequential. An engine built WithFaults is
// rejected.
func (e *Engine) SecureAggStream(w tnet.Transport, srv StreamInfra, src ParticipantSource,
	kr *Keyring, chunkSize int) (Result, RunStats, error) {
	return runSecureAggStream(w, srv, src, kr, chunkSize, e.cfg)
}

// streamLeaf is one chunk travelling through the fold plane: envs on
// the way to a worker, out on the way back.
type streamLeaf struct {
	idx  int
	envs []netsim.Envelope
	out  chunkOutcome
}

func runSecureAggStream(w tnet.Transport, srv StreamInfra, src ParticipantSource,
	kr *Keyring, chunkSize int, cfg config) (Result, RunStats, error) {

	if src == nil {
		return nil, RunStats{}, fmt.Errorf("gquery: streaming run needs a participant source")
	}
	if chunkSize < 1 {
		return nil, RunStats{}, ErrBadChunkSize
	}
	if cfg.faults != nil {
		return nil, RunStats{}, fmt.Errorf("gquery: streaming fold plane requires a clean wire (Faults must be nil)")
	}
	r := newRun(w, srv, nil, kr, cfg, "secure-agg-stream")
	r.protocol = "secure-agg" // the stream executes secure-agg; only its trace says "stream"
	defer r.tp.close()

	// Fold plane: a bounded worker pool drains chunks as the SSI emits
	// them. The jobs buffer is the memory bound that keeps a
	// million-token run flat — once 2·workers+2 chunks wait for a
	// worker, the collector blocks.
	workers := cfg.fleet(math.MaxInt)
	inflight := 2*workers + 2
	jobs := make(chan streamLeaf, inflight)
	results := make(chan streamLeaf, inflight)
	fold := tupleFold(kr, wholeBody, "")
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				label := strconv.Itoa(job.idx)
				job.out = r.runFold(foldJob{worker: "tok@L0." + label, kind: "chunk", label: label, envs: job.envs, fold: fold})
				job.envs = nil // folded: release the chunk's envelopes
				results <- job
			}
		}()
	}

	// The merger consumes leaves in chunk-index order (reordering the
	// pool's completions) so tree placement is deterministic: each leaf
	// is pushed into the fan-in tree.
	tree := r.treeFolder(func(level, j int) string { return fmt.Sprintf("tok@L%d.%d", level, j) })
	var foldErr error
	mergeLeaf := func(out chunkOutcome) error {
		if err := r.tally(out); err != nil {
			return err
		}
		return tree.push(0, treeNode{partial: out.partial, sealed: out.sealed, worker: out.worker, end: r.tp.elapsed(out.worker, true)})
	}
	mergerDone := make(chan struct{})
	go func() {
		defer close(mergerDone)
		pending := map[int]chunkOutcome{}
		next := 0
		for res := range results {
			pending[res.idx] = res.out
			for {
				out, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				if foldErr == nil { // after an error, drain
					foldErr = mergeLeaf(out)
				}
			}
		}
	}()
	stop := func() {
		close(jobs)
		wg.Wait()
		close(results)
		<-mergerDone
	}

	// Collection: stream participants through the SSI; every filled chunk
	// is handed straight to the fold plane. The checksum accumulates
	// incrementally — the querier never needs the participant list.
	nChunks := 0
	if err := srv.StartStream(chunkSize, func(chunk []netsim.Envelope) {
		jobs <- streamLeaf{idx: nChunks, envs: chunk}
		nChunks++
	}); err != nil {
		stop()
		return nil, r.stats, err
	}
	var wantID uint64
	var wantCount int64
	var collectMax time.Duration
	sealTuples := secureAggSeal(kr)
	participants := 0
	var collectErr error
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		participants++
		id, n := expectedChecksum([]Participant{p}, nil)
		wantID += id
		wantCount += n
		if collectErr = r.upload(sealTuples, p); collectErr != nil {
			break
		}
		// Every PDS is its own serial resource: collection's virtual time
		// is the slowest single PDS's upload, not the fleet's sum. Taking
		// the PDS off the ledger keeps it O(in flight), not O(population).
		collectMax = max(collectMax, r.tp.elapsed(p.ID, true))
	}
	srv.FinishStream()
	stop()

	if collectErr != nil {
		return nil, r.stats, collectErr
	}
	if foldErr != nil {
		return nil, r.stats, foldErr
	}
	if participants == 0 {
		return nil, r.stats, ErrNoParticipants
	}
	r.stats.Chunks = nChunks

	// All wire traffic is in; finish the tree (flushing partial arity
	// blocks level by level) while the collect phase is still open so the
	// flush traffic is absorbed with the rest.
	partials, rootEnd, err := tree.root()
	if err != nil {
		return nil, r.stats, err
	}

	// Virtual-time layout from the per-node timelines, every one already
	// read off the ledger: collect ends at the slowest PDS upload; the
	// streaming SSI routed chunks inline, so the partition phase is a
	// zero-width boundary; the fold plane then tiles the fold phase with
	// explicit-time spans.
	r.tp.phasePar(PhasePartition, collectMax)
	r.tp.phasePar(PhaseTokenFold, 0)
	tree.layout()
	r.tp.phasePar(PhaseMerge, rootEnd)
	return r.verdict(partials, wantID, wantCount)
}
