package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"pds/internal/acl"
	"pds/internal/core"
	"pds/internal/embdb"
	"pds/internal/flash"
	"pds/internal/kv"
	"pds/internal/mcu"
	"pds/internal/search"
	data "pds/internal/workload"
)

// The visitor every token query runs as; the token's policy allows it to
// read documents and tables for this purpose only.
const (
	visitor        = "visitor"
	visitorRole    = "guest"
	visitorPurpose = "bench"
)

// tokenWorkload is a closed loop of one client against one loaded
// core.PDS on the smartcard profile; an op is one query.
type tokenWorkload struct {
	name, why string
	shape     tokenShape
	episodes  int
}

func (w *tokenWorkload) Name() string  { return w.name }
func (w *tokenWorkload) Why() string   { return w.why }
func (w *tokenWorkload) Episodes() int { return w.episodes }

type tokenInst struct {
	w      *tokenWorkload
	seed   int64
	pds    *core.PDS
	kvs    *kv.Store
	chip   *flash.Chip
	model  flash.CostModel
	digest string
	// naive is a twin of the token's search engine over the same
	// documents with unbounded RAM: NaiveSearch, the reference the
	// pipelined search is checked against, allocates per retrieved
	// document and by design does not fit the token's arena.
	naive *search.Engine

	tr tokenTrace
}

// tokenTrace is what the traced episodes accumulate, per op kind.
type tokenTrace struct {
	ops                     int
	wall                    [3]time.Duration
	n                       [3]int
	reads                   [3]int64
	io                      flash.Stats
	keyPages, falseProbes   int
	starTuples, starQueries int
	auditBefore, auditAfter int
}

func (w *tokenWorkload) Setup(seed int64) (instance, error) {
	sh := w.shape
	key := sha256.Sum256([]byte(fmt.Sprintf("token-master-%d", seed)))
	pds, err := core.New("token", core.Config{Profile: mcu.Smartcard(), MasterKey: key[:]})
	if err != nil {
		return nil, err
	}
	t := &tokenInst{w: w, seed: seed, pds: pds, chip: pds.Device.Chip, model: pds.Device.Profile.Cost}
	d := newDigester()

	// Documents: the bulk, a reorganization, then a tail that stays in the
	// bucket chains, so a search merges the compact area with chains.
	docs := data.Documents(sh.Docs+sh.LateDocs, sh.Vocab, sh.TermsPerDoc, seed)
	for i, doc := range docs {
		if i == sh.Docs {
			if err := pds.Docs.Reorganize(4, 8); err != nil {
				return nil, fmt.Errorf("reorganize: %w", err)
			}
		}
		if _, err := pds.AddDocument(doc); err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		terms := make([]string, 0, len(doc))
		for term := range doc {
			terms = append(terms, term)
		}
		sort.Strings(terms)
		for _, term := range terms {
			d.str(term)
			d.u64(uint64(doc[term]))
		}
	}
	if err := pds.Docs.Flush(); err != nil {
		return nil, err
	}

	if err := data.BuildStar(pds.DB, data.StarScaleFactor(sh.StarSF), seed); err != nil {
		return nil, fmt.Errorf("star schema: %w", err)
	}
	if err := pds.DB.Flush(); err != nil {
		return nil, err
	}
	if err := digestTables(pds.DB, d); err != nil {
		return nil, err
	}

	t.kvs = kv.Open(pds.Device.Alloc)
	for i := 0; i < sh.KVKeys; i++ {
		if err := t.kvs.Put(kvKey(i), kvValue(seed, i)); err != nil {
			return nil, fmt.Errorf("kv put %d: %w", i, err)
		}
	}
	if err := t.kvs.Flush(); err != nil {
		return nil, err
	}

	read := acl.ActionP(acl.Read)
	pds.Guard.Policy.Add(acl.Rule{Subject: visitor, Collection: "docs", Action: read, Purpose: visitorPurpose, Allow: true})
	pds.Guard.Policy.Add(acl.Rule{Subject: visitor, Collection: "db/*", Action: read, Purpose: visitorPurpose, Allow: true})

	for ep := 0; ep < w.episodes; ep++ {
		d.tokenOps(genTokenOps(sh, episodeSeed(seed, ep)))
	}
	t.digest = d.sum()

	// Warm up with a short untimed stream.
	warm := sh
	warm.Queries = min(warm.Queries, 50)
	var out epOut
	if err := t.loop(genTokenOps(warm, episodeSeed(seed, -1)), &out, nil, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// digestTables scans every table of the star schema into the digest, so
// a change to the program's data generator shows as a different input.
func digestTables(db *embdb.DB, d *digester) error {
	names := db.Tables()
	sort.Strings(names)
	for _, name := range names {
		tbl, err := db.Table(name)
		if err != nil {
			return err
		}
		d.str(name)
		it := tbl.Scan()
		for {
			row, _, ok := it.Next()
			if !ok {
				break
			}
			for _, v := range row {
				d.str(v.String())
			}
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (t *tokenInst) InputDigest() string { return t.digest }

func (t *tokenInst) Close() error {
	if err := t.kvs.Close(); err != nil {
		return err
	}
	return t.pds.Close()
}

func starQuery(op tokenOp) embdb.StarQuery {
	return embdb.StarQuery{
		Root: "LINEITEM",
		Conds: []embdb.Cond{
			{Table: "CUSTOMER", Col: "mktsegment", Val: embdb.StrVal(op.Segment)},
			{Table: "SUPPLIER", Col: "name", Val: embdb.StrVal(op.Supplier)},
		},
		Project: []embdb.ColRef{
			{Table: "CUSTOMER", Col: "name"},
			{Table: "LINEITEM", Col: "qty"},
		},
	}
}

// loop runs one query stream. The virtual latency of an op is the chip's
// I/O during it under the token's cost model. fold digests the outputs;
// rec and the trace accumulators are nil on the measured pass.
func (t *tokenInst) loop(ops []tokenOp, out *epOut, virt *[]int64, rec *recorder) error {
	fold := newDigester()
	put := fold.u64
	tr := &t.tr
	base := tr.ops
	for i, op := range ops {
		before := t.chip.Stats()
		var t0 time.Time
		var opSpan, sp int
		if rec != nil {
			opSpan = rec.begin("op", 0, base+i)
			sp = rec.begin([3]string{"search.search", "embdb.star", "kv.get"}[op.Kind], opSpan, base+i)
			t0 = time.Now()
		}
		switch op.Kind {
		case opSearch:
			res, err := t.pds.SearchAs(visitor, visitorRole, visitorPurpose, op.Keywords[:], 10)
			if err != nil {
				out.failed++
				return fmt.Errorf("search %v: %w", op.Keywords, err)
			}
			for _, r := range res {
				put(uint64(r.Doc))
				put(math.Float64bits(r.Score))
			}
		case opStar:
			rows, err := t.pds.QueryAs(visitor, visitorRole, visitorPurpose, starQuery(op))
			if err != nil {
				out.failed++
				return fmt.Errorf("star query %s/%s: %w", op.Segment, op.Supplier, err)
			}
			put(uint64(len(rows)))
		case opGet:
			v, st, err := t.kvs.Get(kvKey(op.Key))
			if err != nil {
				out.failed++
				return fmt.Errorf("get %d: %w", op.Key, err)
			}
			if !bytes.Equal(v, kvValue(t.seed, op.Key)) {
				out.failed++
				out.violations = append(out.violations, fmt.Sprintf("get %d returned %q", op.Key, v))
			}
			put(uint64(len(v)))
			if rec != nil {
				tr.keyPages += st.KeyPages
				tr.falseProbes += st.FalseProbes
			}
		}
		io := t.chip.Stats().Sub(before)
		if rec != nil {
			tr.wall[op.Kind] += time.Since(t0)
			rec.end(sp)
			rec.end(opSpan)
			tr.n[op.Kind]++
			tr.reads[op.Kind] += io.PageReads
			tr.io = tr.io.Add(io)
		}
		if virt != nil {
			*virt = append(*virt, io.Cost(t.model).Nanoseconds())
		}
	}
	if rec != nil {
		tr.ops += len(ops)
	}
	out.ops = len(ops)
	out.digest = fold.sum()
	return nil
}

func (t *tokenInst) Episode(c *epCtx) (epOut, error) {
	ops := genTokenOps(t.w.shape, episodeSeed(t.seed, c.ep))
	var out epOut
	virt := slices.Grow(c.virt, len(ops))
	if c.rec != nil && t.tr.ops == 0 {
		t.tr.auditBefore = t.pds.Guard.Audit.Len()
	}
	m := startMeter()
	err := t.loop(ops, &out, &virt, c.rec)
	m.stop(&out)
	out.virt = virt
	if err != nil {
		return out, err
	}
	if c.rec != nil {
		t.tr.auditAfter = t.pds.Guard.Audit.Len()
	}
	if c.heap {
		out.liveHeap = liveHeap()
		runtime.KeepAlive(t.pds)
	}
	if c.ep == 0 {
		out.violations = append(out.violations, t.check(ops)...)
	}
	return out, nil
}

// check is the token correctness gate on a sample of the stream: the
// pipelined executors must agree with their naive references.
func (t *tokenInst) check(ops []tokenOp) []string {
	var bad []string
	if t.naive == nil {
		sh := t.w.shape
		e, err := search.NewEngine(flash.NewAllocator(flash.NewChip(t.chip.Geometry())), mcu.NewArena(0), 16)
		if err != nil {
			return []string{fmt.Sprintf("reference engine: %v", err)}
		}
		for _, doc := range data.Documents(sh.Docs+sh.LateDocs, sh.Vocab, sh.TermsPerDoc, t.seed) {
			if _, err := e.AddDocument(doc); err != nil {
				return []string{fmt.Sprintf("reference engine: %v", err)}
			}
		}
		if err := e.Flush(); err != nil {
			return []string{fmt.Sprintf("reference engine: %v", err)}
		}
		t.naive = e
	}
	searches, stars := 0, 0
	for _, op := range ops {
		switch {
		case op.Kind == opSearch && searches < 25:
			searches++
			got, err1 := t.pds.Docs.Search(op.Keywords[:], 10)
			want, err2 := t.naive.NaiveSearch(op.Keywords[:], 10)
			if err := errors.Join(err1, err2); err != nil {
				bad = append(bad, fmt.Sprintf("search %v: %v", op.Keywords, err))
			} else if !sameResults(got, want) {
				bad = append(bad, fmt.Sprintf("search %v: pipeline %v != naive %v", op.Keywords, got, want))
			}
		case op.Kind == opStar && stars < 3:
			stars++
			q := starQuery(op)
			rows, err := t.pds.DB.ExecuteStar(q)
			if err != nil {
				bad = append(bad, fmt.Sprintf("star %s/%s: %v", op.Segment, op.Supplier, err))
				continue
			}
			got, err1 := rows.All()
			want, _, err2 := t.pds.DB.ExecuteStarNaive(q)
			if err := errors.Join(err1, err2); err != nil {
				bad = append(bad, fmt.Sprintf("star %s/%s: %v", op.Segment, op.Supplier, err))
			} else if a, b := rowSet(got), rowSet(want); !slices.Equal(a, b) {
				bad = append(bad, fmt.Sprintf("star %s/%s: pipeline returned %d rows, naive %d", op.Segment, op.Supplier, len(a), len(b)))
			}
		}
	}
	return bad
}

func sameResults(a, b []search.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// rowSet renders rows as a sorted multiset.
func rowSet(rows []embdb.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func (t *tokenInst) Layers(rec *recorder, m *metricSet) error {
	tr := &t.tr
	if tr.ops == 0 {
		return errors.New("no traced episode ran")
	}
	perCall := func(kind int, total float64) float64 {
		if tr.n[kind] == 0 {
			return 0
		}
		return total / float64(tr.n[kind])
	}
	m.set("search.search_ns", perCall(opSearch, float64(tr.wall[opSearch])), tr.n[opSearch])
	m.set("search.search_page_reads", perCall(opSearch, float64(tr.reads[opSearch])), tr.n[opSearch])
	m.set("embdb.star_ns", perCall(opStar, float64(tr.wall[opStar])), tr.n[opStar])
	m.set("embdb.star_page_reads", perCall(opStar, float64(tr.reads[opStar])), tr.n[opStar])
	m.set("kv.get_ns", perCall(opGet, float64(tr.wall[opGet])), tr.n[opGet])
	m.set("kv.get_key_pages", perCall(opGet, float64(tr.keyPages)), tr.n[opGet])
	m.set("kv.get_false_probes", perCall(opGet, float64(tr.falseProbes)), tr.n[opGet])

	// Tuples fetched per star query, from the executor's own statistics
	// on the first episode's star queries.
	for _, op := range genTokenOps(t.w.shape, episodeSeed(t.seed, 0)) {
		if op.Kind != opStar {
			continue
		}
		sp := rec.begin("embdb.star", 0, tr.starQueries)
		rows, err := t.pds.DB.ExecuteStar(starQuery(op))
		if err != nil {
			return err
		}
		if _, err := rows.All(); err != nil {
			return err
		}
		rec.end(sp)
		tr.starTuples += rows.Stats().TuplesFetched
		tr.starQueries++
	}
	m.set("embdb.star_tuples_fetched", float64(tr.starTuples)/float64(max(tr.starQueries, 1)), tr.starQueries)

	ops := float64(tr.ops)
	m.set("flash.page_reads_per_op", float64(tr.io.PageReads)/ops, tr.ops)
	m.set("flash.page_writes_per_op", float64(tr.io.PageWrites)/ops, tr.ops)
	m.set("flash.block_erases_per_op", float64(tr.io.BlockErases)/ops, tr.ops)
	m.set("flash.wear_max", float64(t.chip.WearSummary().Max), tr.ops)
	m.set("acl.audit_entries_per_op", float64(tr.auditAfter-tr.auditBefore)/ops, tr.ops)
	return nil
}
