package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"

	"pds/internal/gquery"
)

// The benchmark owns its input generators: a later change to the
// program's generators (workload.OpenLoop, workload.Participants) must
// not move the benchmark's inputs, or two commits would be measured on
// different work. Everything below is a pure function of its seed;
// math/rand's seeded sources are frozen by the Go 1 compatibility
// promise.

// episodeSeed derives the seed of one episode from the run seed.
func episodeSeed(seed int64, episode int) int64 { return seed*1000003 + int64(episode) }

// digester hashes generated inputs in a canonical binary form.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// --- serve-*: open-loop arrival schedules ---

// serveShape is the traffic shape of one serve workload.
type serveShape struct {
	Tenants    int
	ZipfS      float64 // > 1 skews tenant popularity; 0 is uniform
	RatePerSec float64 // virtual Poisson arrival rate
	DenyFrac   float64 // share of arrivals carrying the forbidden purpose
	Arrivals   int     // per episode
}

// arrival is one scheduled request.
type arrival struct {
	AtNS      int64
	Tenant    int32
	Forbidden bool
}

// genArrivals draws one episode's schedule: exponential gaps at the
// shape's rate, Zipf or uniform tenant choice, a DenyFrac slice of
// forbidden-purpose requests.
func genArrivals(sh serveShape, seed int64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if sh.ZipfS > 1 && sh.Tenants > 1 {
		zipf = rand.NewZipf(rng, sh.ZipfS, 1, uint64(sh.Tenants-1))
	}
	out := make([]arrival, sh.Arrivals)
	var at float64
	for i := range out {
		at += rng.ExpFloat64() / sh.RatePerSec * 1e9
		a := arrival{AtNS: int64(at)}
		if zipf != nil {
			a.Tenant = int32(zipf.Uint64())
		} else {
			a.Tenant = int32(rng.Intn(sh.Tenants))
		}
		a.Forbidden = rng.Float64() < sh.DenyFrac
		out[i] = a
	}
	return out
}

func (d *digester) arrivals(as []arrival) {
	for _, a := range as {
		d.u64(uint64(a.AtNS))
		v := uint64(a.Tenant) << 1
		if a.Forbidden {
			v |= 1
		}
		d.u64(v)
	}
}

// tenantNames is the shared name table of a population ("tenant-0042",
// the spelling pdsd serve uses), so the request loop formats nothing.
func tenantNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%04d", i)
	}
	return names
}

// --- gquery-*: participant populations ---

// groupDomain is the public group domain of the global queries.
var groupDomain = []string{
	"healthy", "flu", "asthma", "diabetes", "hypertension",
	"migraine", "arthritis", "allergy",
}

// genParticipants draws n participants of tuplesEach (group, value)
// tuples with a squared-uniform skew towards the early groups.
func genParticipants(n, tuplesEach int, seed int64) []gquery.Participant {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]gquery.Participant, n)
	for i := range parts {
		parts[i].ID = fmt.Sprintf("pds-%05d", i)
		parts[i].Tuples = make([]gquery.Tuple, tuplesEach)
		for j := range parts[i].Tuples {
			g := groupDomain[int(float64(len(groupDomain))*rng.Float64()*rng.Float64())]
			parts[i].Tuples[j] = gquery.Tuple{Group: g, Value: 10 + rng.Int63n(500)}
		}
	}
	return parts
}

func (d *digester) participants(parts []gquery.Participant) {
	for _, p := range parts {
		d.str(p.ID)
		for _, t := range p.Tuples {
			d.str(t.Group)
			d.u64(uint64(t.Value))
		}
	}
}

// --- token-query: the query stream of one token ---

// Token op kinds, in the fixed 2:1:2 rotation search, get, star, search,
// get.
const (
	opSearch = iota
	opStar
	opGet
)

var tokenRotation = [5]int{opSearch, opGet, opStar, opSearch, opGet}

// marketSegments and the supplier naming mirror the star data the token
// is loaded with; the data itself is pinned by the full-scan digest.
var marketSegments = []string{"HOUSEHOLD", "AUTOMOBILE", "BUILDING", "MACHINERY", "FURNITURE"}

// tokenShape sizes the token-query data set and query stream.
type tokenShape struct {
	Docs, Vocab, TermsPerDoc int
	LateDocs                 int // added after the reorganization
	StarSF                   float64
	Suppliers                int
	KVKeys                   int
	Queries                  int // per episode
}

// tokenOp is one query of the stream.
type tokenOp struct {
	Kind     int
	Keywords [2]string
	Segment  string
	Supplier string
	Key      int
}

// genTokenOps draws one episode's query stream.
func genTokenOps(sh tokenShape, seed int64) []tokenOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(sh.Vocab-1))
	ops := make([]tokenOp, sh.Queries)
	for i := range ops {
		op := tokenOp{Kind: tokenRotation[i%len(tokenRotation)]}
		switch op.Kind {
		case opSearch:
			a := zipf.Uint64()
			b := zipf.Uint64()
			for b == a {
				b = zipf.Uint64()
			}
			op.Keywords = [2]string{fmt.Sprintf("term%05d", a), fmt.Sprintf("term%05d", b)}
		case opStar:
			op.Segment = marketSegments[rng.Intn(len(marketSegments))]
			op.Supplier = fmt.Sprintf("SUPPLIER-%d", rng.Intn(sh.Suppliers))
		case opGet:
			op.Key = rng.Intn(sh.KVKeys)
		}
		ops[i] = op
	}
	return ops
}

func (d *digester) tokenOps(ops []tokenOp) {
	for _, op := range ops {
		d.u64(uint64(op.Kind))
		d.str(op.Keywords[0])
		d.str(op.Keywords[1])
		d.str(op.Segment)
		d.str(op.Supplier)
		d.u64(uint64(op.Key))
	}
}

// kvKey and kvValue are the token's key-value data.
func kvKey(i int) []byte { return []byte(fmt.Sprintf("user/%05d", i)) }

func kvValue(seed int64, i int) []byte {
	return []byte(fmt.Sprintf("profile-%05d-%016x", i, uint64(seed)*0x9e3779b97f4a7c15+uint64(i)))
}
