package gquery

import (
	"encoding/binary"
	"math"
	"strconv"
	"sync"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// foldJob is one token-fold work item: which worker token runs it and
// its place in the job order, the wire kind of the SSI → token dispatch
// leg, how the chunk is labeled in the trace, the envelopes it carries
// and how the token folds each of them.
type foldJob struct {
	idx    int
	worker string
	kind   string
	label  string
	envs   []netsim.Envelope
	fold   envProcessor
}

// chunkOutcome is what a token's fold produced: its partial, which token
// holds it, and the integrity failures and hard error it met. buf is the
// token's plaintext scratch, which a merging token decrypts each sealed
// partial into.
type chunkOutcome struct {
	partial     partialAgg
	worker      string
	macFailures int
	err         error
	buf         []byte
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
// duplicated deliveries. The partial stays at the token until its
// parent's frame needs it (treeFolder.upload), so a leaf that is the
// tree's root never uploads one. Every leg is charged to the worker's
// timeline, which is where the tree scheduler places the leaf.
func (r *run) runFold(job foldJob) chunkOutcome {
	tp := r.tp
	disp := tp.ro.span("ssi-dispatch", "chunk", job.label, "worker", job.worker)
	defer disp.End()
	var fold *obs.Span
	defer func() { fold.End() }()
	out := chunkOutcome{worker: job.worker, partial: partialAgg{Aggs: map[string]*GroupAgg{}}}
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
	return out
}

// foldPlane is the token-fold plane every run shares. Job j is folded by
// a token of its own, tok@L0.<j>, and its partial becomes leaf j of the
// fan-in tree. With one worker the plane folds each job inline, on the
// goroutine that submits it. Above that, a pool of workers drains a queue
// of 2·workers+2 jobs — once the queue is full, submit blocks, which is
// what keeps a streaming run's memory flat however large the fleet: at
// most 3·workers+3 chunks are unfolded at once (queued, in each worker's
// hands, and the one being handed over) — and a merger pushes the leaves
// into the tree in job order, so every pool size builds the same tree.
type foldPlane struct {
	r    *run
	tree *treeFolder
	n    int   // jobs submitted
	err  error // the first fold or tree error; read once the plane drained

	// The pool, nil when folding inline.
	jobs    chan foldJob
	results chan foldedJob
	busy    sync.WaitGroup // jobs submitted and not yet in the tree
	workers sync.WaitGroup
	merged  chan struct{}
}

// foldedJob is a pool worker's outcome on its way to the merger.
type foldedJob struct {
	idx int
	out chunkOutcome
}

func (r *run) foldPlane() *foldPlane {
	p := &foldPlane{r: r, tree: r.treeFolder()}
	workers := r.cfg.fleet(math.MaxInt)
	if workers == 1 {
		return p
	}
	// The queue's depth is the memory bound above; results is as deep,
	// so a worker rarely waits on the merger to hand its outcome over.
	p.jobs = make(chan foldJob, 2*workers+2)
	p.results = make(chan foldedJob, 2*workers+2)
	p.merged = make(chan struct{})
	for range workers {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			for job := range p.jobs {
				p.results <- foldedJob{idx: job.idx, out: r.runFold(job)}
			}
		}()
	}
	go func() {
		defer close(p.merged)
		pending := map[int]chunkOutcome{}
		next := 0
		for res := range p.results {
			pending[res.idx] = res.out
			for out, ok := pending[next]; ok; out, ok = pending[next] {
				delete(pending, next)
				next++
				p.leaf(out)
				p.busy.Done()
			}
		}
	}()
	return p
}

// submit hands the plane its next job, labeled by its index unless the
// protocol names it.
func (p *foldPlane) submit(job foldJob) {
	job.idx = p.n
	job.worker = token(0, p.n)
	if job.label == "" {
		job.label = strconv.Itoa(p.n)
	}
	p.n++
	if p.jobs == nil {
		p.leaf(p.r.runFold(job))
		return
	}
	p.busy.Add(1)
	p.jobs <- job
}

// leaf tallies one fold and pushes its partial into the tree as the next
// leaf, available once its token's dispatch leg is done. The leg stays on
// the token's ledger, where its upload joins it (treeFolder.upload).
// After an error the plane only drains.
func (p *foldPlane) leaf(out chunkOutcome) {
	if p.err != nil {
		return
	}
	if p.err = p.r.tally(out); p.err == nil {
		p.err = p.tree.push(0, treeNode{partial: out.partial, worker: out.worker, end: p.r.tp.elapsed(out.worker, false)})
	}
}

// wait returns once every job submitted so far is in the tree, so no
// frame of the plane is in flight.
func (p *foldPlane) wait() { p.busy.Wait() }

// drain stops the pool once every job is in the tree and reports the
// first error the plane met.
func (p *foldPlane) drain() error {
	if p.jobs != nil {
		close(p.jobs)
		p.workers.Wait()
		close(p.results)
		<-p.merged
	}
	return p.err
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
// body into a stack buffer, decode it in place, and fold the value under
// key — or under the tuple's own group when key is empty. Fakes count
// toward the checksum only.
func tupleFold(kr *Keyring, ct func(body []byte) []byte, key string) envProcessor {
	keyBytes := []byte(key)
	return func(out *chunkOutcome, payload []byte) {
		body, err := open(kr, payload)
		if err != nil {
			out.macFailures++
			return
		}
		var buf [64]byte // a group too long for it spills to the heap
		pt, err := kr.NonDet.AppendDecrypt(buf[:0], ct(body))
		if err != nil {
			out.macFailures++
			return
		}
		t, err := decodeTupleView(pt)
		if err != nil {
			out.err = err
			return
		}
		out.partial.IDSum += t.ID
		out.partial.Count++
		if t.Fake {
			return
		}
		g := keyBytes
		if key == "" {
			g = t.Group
		}
		a := out.partial.agg(g)
		*a = a.Fold(t.Value)
	}
}

// Where each protocol's token finds the tuple ciphertext in a sealed
// upload body: secure-agg seals the tuple ciphertext alone, noise
// prefixes u16 gctLen | Enc_det(group), histogram the clear u16 bucket id.
func wholeBody(body []byte) []byte     { return body }
func afterGroupCT(body []byte) []byte  { return body[2+int(binary.LittleEndian.Uint16(body[:2])):] }
func afterBucketID(body []byte) []byte { return body[2:] }

// mergeSealed is the merging token's processor, one record of its
// "tree-partial" frame at a time: verify, decrypt into the outcome's
// scratch and decode a sealed partial, and merge it into out.partial.
func mergeSealed(kr *Keyring) envProcessor {
	return func(out *chunkOutcome, payload []byte) {
		ct, err := open(kr, payload)
		if err != nil {
			out.macFailures++
			return
		}
		pt, err := kr.NonDet.AppendDecrypt(out.buf[:0], ct)
		if err != nil {
			out.macFailures++
			return
		}
		out.buf = pt
		p, err := decodePartial(pt)
		if err != nil {
			out.err = err
			return
		}
		out.partial.IDSum += p.IDSum
		out.partial.Count += p.Count
		for g, a := range p.Aggs {
			if m := out.partial.Aggs[g]; m != nil {
				*m = m.Merge(*a)
			} else {
				out.partial.Aggs[g] = a
			}
		}
	}
}
