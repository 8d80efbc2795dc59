package gquery

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"pds/internal/netsim"
	"pds/internal/ssi"
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
// stream with bounded memory: uploads flow through the SSI's streaming
// partition mode, each filled chunk is dispatched to a fold token as soon
// as it exists, and partials are merged incrementally (flat) or climb the
// fan-in tree as contiguous arity blocks complete (Tree topology). At no
// point does the engine materialize the fleet's tuple set; the number of
// filled-but-unfolded chunks is bounded at 2·workers+2.
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

// mergeToken is the flat streaming run's final merge token.
const mergeToken = "tok@merge"

// streamLeaf is one chunk travelling through the fold plane: envs on
// the way to a worker, out on the way back.
type streamLeaf struct {
	idx  int
	envs []netsim.Envelope
	out  chunkOutcome
}

func runSecureAggStream(w tnet.Transport, srv StreamInfra, src ParticipantSource,
	kr *Keyring, chunkSize int, cfg config) (Result, RunStats, error) {

	var stats RunStats
	if src == nil {
		return nil, stats, fmt.Errorf("gquery: streaming run needs a participant source")
	}
	if chunkSize < 1 {
		return nil, stats, ErrBadChunkSize
	}
	if cfg.faults != nil {
		return nil, stats, fmt.Errorf("gquery: streaming fold plane requires a clean wire (Faults must be nil)")
	}
	tp := newTransport(w, cfg, "secure-agg-stream")
	defer tp.close()

	// Fold plane: a bounded worker pool drains chunks as the SSI emits
	// them. The jobs buffer is the memory bound that keeps a
	// million-token run flat — once 2·workers+2 chunks are filled but
	// unfolded, the collector blocks.
	workers := cfg.fleet(math.MaxInt)
	inflight := 2*workers + 2
	jobs := make(chan streamLeaf, inflight)
	results := make(chan streamLeaf, inflight)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				job.out = tp.runFold(
					foldJob{worker: "tok@L0." + strconv.Itoa(job.idx), kind: "chunk", label: strconv.Itoa(job.idx)},
					job.envs, tupleProcessor(kr), sealedPartial(kr))
				job.envs = nil // folded: release the chunk's envelopes
				results <- job
			}
		}()
	}

	// The folder consumes leaves in chunk-index order (reordering the
	// pool's completions) so merging and tree placement are deterministic.
	fold := newStreamFolder(tp, kr, cfg, &stats)
	folderDone := make(chan struct{})
	go func() {
		defer close(folderDone)
		pending := map[int]chunkOutcome{}
		next := 0
		for r := range results {
			pending[r.idx] = r.out
			for {
				out, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				fold.leaf(out)
				next++
			}
		}
	}()

	// Collection: stream participants through the SSI; every filled chunk
	// is handed straight to the fold plane. The checksum accumulates
	// incrementally — the querier never needs the participant list.
	nChunks := 0
	if err := srv.StartStream(chunkSize, func(chunk []netsim.Envelope) {
		jobs <- streamLeaf{idx: nChunks, envs: chunk}
		nChunks++
	}); err != nil {
		close(jobs)
		wg.Wait()
		close(results)
		<-folderDone
		return nil, stats, err
	}
	var wantID uint64
	var wantCount int64
	var collectMax time.Duration
	participants := 0
	var collectErr error
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		participants++
		for seq, t := range p.Tuples {
			id := ssi.HashID(p.ID, seq)
			wantID += id
			wantCount++
			payload, err := sealTuple(kr, nil, tuplePlain{ID: id, Group: t.Group, Value: t.Value})
			if err != nil {
				collectErr = err
				break
			}
			if err := tp.send(netsim.Envelope{
				From: p.ID, To: srv.Dest(p.ID), Kind: "tuple", Payload: payload,
			}, srv.Receive); err != nil {
				collectErr = err
				break
			}
		}
		if collectErr != nil {
			break
		}
		// Every PDS is its own serial resource: collection's virtual time
		// is the slowest single PDS's upload, not the fleet's sum. Taking
		// the PDS off the ledger keeps it O(in flight), not O(population).
		collectMax = max(collectMax, tp.elapsed(p.ID, true))
	}
	srv.FinishStream()
	close(jobs)
	wg.Wait()
	close(results)
	<-folderDone

	if collectErr != nil {
		return nil, stats, collectErr
	}
	if fold.err != nil {
		return nil, stats, fold.err
	}
	if participants == 0 {
		return nil, stats, ErrNoParticipants
	}
	stats.Chunks = nChunks

	// All wire traffic is in; finish the tree (flushing partial arity
	// blocks level by level) while the collect phase is still open so the
	// flush traffic is absorbed with the rest.
	var partials []partialAgg
	var rootEnd time.Duration
	if cfg.topology.IsTree() {
		root, ok, err := fold.finishTree()
		if err != nil {
			return nil, stats, err
		}
		if ok {
			partials = []partialAgg{root.partial}
			rootEnd = root.end
			stats.TreeDepth = len(fold.record)
		}
	} else {
		partials = []partialAgg{fold.running}
	}

	// Virtual-time layout from the per-node timelines, every one already
	// read off the ledger but the flat merge token's: collect ends at the
	// slowest PDS upload; the streaming SSI routed chunks inline, so the
	// partition phase is a zero-width boundary; the fold plane then tiles
	// the fold phase with explicit-time spans.
	merge := tp.elapsed(mergeToken, true)
	tp.phasePar(PhasePartition, collectMax)
	tp.phasePar(PhaseTokenFold, 0)
	if cfg.topology.IsTree() {
		base := tp.ro.reg.Clock().Now()
		foldPhase := tp.ro.phases[PhaseTokenFold]
		tracer := tp.ro.reg.Tracer()
		for lvl, nodes := range fold.record {
			emitLevel(tracer, foldPhase, base, lvl, nodes)
		}
		tp.phasePar(PhaseMerge, rootEnd)
	} else {
		// Flat: leaf folds overlap (fold phase = slowest chunk), then the
		// single final token replays every sealed partial serially — the
		// O(n) tail the tree removes.
		tp.phasePar(PhaseMerge, fold.foldMax)
		tp.ro.reg.Clock().Advance(merge)
	}

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

// streamFolder merges folded chunks with bounded state: a running
// partial (flat) or the pending arity blocks of each tree level — at
// most arity-1 nodes per level, O(arity·log n) total.
type streamFolder struct {
	tp    *transport
	kr    *Keyring
	tree  bool
	arity int
	stats *RunStats
	err   error

	// Flat topology: one running merged partial, and the slowest leaf.
	running partialAgg
	foldMax time.Duration

	// Tree topology: pending holds each level's incomplete trailing
	// block; record keeps every node's timeline (sealed bytes stripped)
	// for span emission — O(chunks), not O(tuples).
	pending [][]treeNode
	record  [][]treeNode
}

func newStreamFolder(tp *transport, kr *Keyring, cfg config, stats *RunStats) *streamFolder {
	return &streamFolder{
		tp:      tp,
		kr:      kr,
		tree:    cfg.topology.IsTree(),
		arity:   cfg.topology.Arity(),
		stats:   stats,
		running: partialAgg{Aggs: map[string]GroupAgg{}},
	}
}

// leaf folds one completed chunk outcome in, in chunk-index order.
func (f *streamFolder) leaf(out chunkOutcome) {
	if f.err != nil {
		return // drain mode: an earlier chunk already failed the run
	}
	f.stats.MACFailures += out.macFailures
	if out.macFailures > 0 {
		f.stats.Detected = true
	}
	if out.err != nil {
		f.err = out.err
		return
	}
	f.stats.WorkerCalls++
	end := f.tp.elapsed(out.worker, true)
	f.foldMax = max(f.foldMax, end)
	if f.tree {
		f.err = f.push(0, treeNode{partial: out.partial, sealed: out.sealed, worker: out.worker, end: end})
		return
	}
	// Flat: the final token receives the sealed partial over the wire
	// ("merge" frames) and folds it into the running aggregate — the
	// serial tail its timeline charges to the merge phase at the end of
	// the run.
	f.err = f.tp.send(netsim.Envelope{From: "ssi", To: mergeToken, Kind: "merge", Payload: out.sealed},
		func(e netsim.Envelope) {
			ct, err := open(f.kr, e.Payload)
			if err != nil {
				f.stats.MACFailures++
				f.stats.Detected = true
				return
			}
			pt, err := f.kr.NonDet.Decrypt(ct)
			if err != nil {
				f.stats.MACFailures++
				f.stats.Detected = true
				return
			}
			p, err := decodePartial(pt)
			if err != nil {
				f.err = err
				return
			}
			f.running.IDSum += p.IDSum
			f.running.Count += p.Count
			for g, a := range p.Aggs {
				f.running.Aggs[g] = f.running.Aggs[g].Merge(a)
			}
		})
}

// push places a node at its tree level; a filled arity block folds
// immediately into the next level — the streaming form of reduceTree's
// contiguous blocks, so batch and stream build the identical tree.
func (f *streamFolder) push(level int, n treeNode) error {
	for len(f.pending) <= level {
		f.pending = append(f.pending, nil)
	}
	for len(f.record) <= level {
		f.record = append(f.record, nil)
	}
	rec := n
	rec.sealed = nil
	f.record[level] = append(f.record[level], rec)
	f.pending[level] = append(f.pending[level], n)
	if len(f.pending[level]) >= f.arity {
		block := f.pending[level]
		f.pending[level] = nil
		return f.foldBlock(level, block)
	}
	return nil
}

// foldBlock runs one interior token over a contiguous block. Interior
// tokens get deterministic fleet names by tree coordinate.
func (f *streamFolder) foldBlock(level int, block []treeNode) error {
	j := 0
	if level+1 < len(f.record) {
		j = len(f.record[level+1])
	}
	worker := fmt.Sprintf("tok@L%d.%d", level+1, j)
	node, err := f.tp.foldTreeNode(f.kr, worker, block, f.stats)
	if err != nil {
		return err
	}
	f.stats.WorkerCalls++
	f.stats.TreeNodes++
	return f.push(level+1, node)
}

// finishTree flushes the partial trailing blocks level by level and
// returns the root (ok=false when the stream was empty).
func (f *streamFolder) finishTree() (treeNode, bool, error) {
	for lvl := 0; lvl < len(f.pending); lvl++ {
		block := f.pending[lvl]
		if len(block) == 0 {
			continue
		}
		f.pending[lvl] = nil
		above := false
		for k := lvl + 1; k < len(f.pending); k++ {
			if len(f.pending[k]) > 0 {
				above = true
				break
			}
		}
		if !above && len(block) == 1 {
			return block[0], true, nil
		}
		if err := f.foldBlock(lvl, block); err != nil {
			return treeNode{}, false, err
		}
	}
	return treeNode{}, false, nil
}
