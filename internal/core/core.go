// Package core assembles the Personal Data Server of Part I: one secure
// token (simulated MCU + NAND flash) hosting the owner's embedded
// relational database, full-text search engine, privacy policies with a
// tamper-evident audit trail, and medical-folder replica — plus the
// Directory/GlobalQuery machinery that realizes the asymmetric
// architecture: many PDSs answering global queries through an untrusted
// SSI with the Part III protocols.
package core

import (
	"errors"
	"fmt"

	"pds/internal/acl"
	"pds/internal/embdb"
	"pds/internal/folder"
	"pds/internal/gquery"
	"pds/internal/mcu"
	"pds/internal/netsim"
	"pds/internal/privcrypto"
	"pds/internal/search"
	"pds/internal/ssi"
)

// Config parameterizes a new PDS.
type Config struct {
	// Profile selects the simulated hardware; zero value = Smartcard.
	Profile mcu.Profile
	// SearchBuckets sizes the search engine's hash table (insertion
	// buffers cost one flash page of RAM each); zero = 16.
	SearchBuckets int
	// MasterKey is the token-issuer-provisioned secret shared by
	// certified tokens; nil draws a fresh one (the PDS then cannot join
	// global computations with other tokens unless they share it).
	MasterKey []byte
}

// PDS is one Personal Data Server: the user's data under the user's
// control, behind tamper-resistant hardware.
type PDS struct {
	ID      string
	Device  *mcu.Device
	DB      *embdb.DB
	Docs    *search.Engine
	Guard   *acl.Guard
	Folder  *folder.Replica
	Keyring *gquery.Keyring

	masterKey []byte
}

// ErrDenied is returned when the owner's privacy policy refuses a request.
var ErrDenied = errors.New("core: denied by privacy policy")

// New builds a PDS on fresh simulated hardware.
func New(id string, cfg Config) (*PDS, error) {
	if cfg.Profile.RAM == 0 {
		cfg.Profile = mcu.Smartcard()
	}
	if cfg.SearchBuckets == 0 {
		cfg.SearchBuckets = 16
	}
	if cfg.MasterKey == nil {
		k, err := privcrypto.NewKey()
		if err != nil {
			return nil, err
		}
		cfg.MasterKey = k
	}
	dev := mcu.NewDevice(cfg.Profile)
	eng, err := search.NewEngine(dev.Alloc, dev.RAM, cfg.SearchBuckets)
	if err != nil {
		return nil, fmt.Errorf("core: search engine: %w", err)
	}
	kr, err := gquery.KeyringFrom(cfg.MasterKey)
	if err != nil {
		return nil, err
	}
	return &PDS{
		ID:        id,
		Device:    dev,
		DB:        embdb.NewDB(dev.Alloc, dev.RAM),
		Docs:      eng,
		Guard:     acl.NewGuard(),
		Folder:    folder.NewReplica(id),
		Keyring:   kr,
		masterKey: cfg.MasterKey,
	}, nil
}

// AddDocument indexes a document for the owner (no policy check: the owner
// has all local privileges on her own data).
func (p *PDS) AddDocument(terms map[string]int) (search.DocID, error) {
	return p.Docs.AddDocument(terms)
}

// SearchAs runs a full-text query on behalf of a visitor, enforcing the
// owner's policy and recording the decision in the audit chain.
func (p *PDS) SearchAs(subject, role, purpose string, keywords []string, topN int) ([]search.Result, error) {
	req := acl.Request{Subject: subject, Role: role, Collection: "docs", Action: acl.Read, Purpose: purpose}
	if !p.Guard.Check(req) {
		return nil, fmt.Errorf("%w: %s searching docs", ErrDenied, subject)
	}
	return p.Docs.Search(keywords, topN)
}

// QueryAs evaluates a star query on behalf of a visitor, policy-checked on
// the root table's collection name.
func (p *PDS) QueryAs(subject, role, purpose string, q embdb.StarQuery) ([]embdb.Row, error) {
	req := acl.Request{Subject: subject, Role: role, Collection: "db/" + q.Root, Action: acl.Read, Purpose: purpose}
	if !p.Guard.Check(req) {
		return nil, fmt.Errorf("%w: %s querying %s", ErrDenied, subject, q.Root)
	}
	rows, err := p.DB.ExecuteStar(q)
	if err != nil {
		return nil, err
	}
	return rows.All()
}

// Contribute exports (group, value) tuples from a table for a global
// computation, if the owner's policy allows sharing that collection for
// that purpose. This is the PDS-side gate of the asymmetric architecture:
// participation is always the owner's decision.
func (p *PDS) Contribute(requester, purpose, table, groupCol, valueCol string) ([]gquery.Tuple, error) {
	req := acl.Request{Subject: requester, Collection: "db/" + table, Action: acl.Share, Purpose: purpose}
	if !p.Guard.Check(req) {
		return nil, fmt.Errorf("%w: sharing %s for %s", ErrDenied, table, purpose)
	}
	t, err := p.DB.Table(table)
	if err != nil {
		return nil, err
	}
	gi := t.Schema().ColIndex(groupCol)
	vi := t.Schema().ColIndex(valueCol)
	if gi < 0 || vi < 0 {
		return nil, fmt.Errorf("core: columns %s/%s not in %s", groupCol, valueCol, table)
	}
	var out []gquery.Tuple
	it := t.Scan()
	for {
		row, _, ok := it.Next()
		if !ok {
			break
		}
		v, ok := row[vi].(embdb.IntVal)
		if !ok {
			return nil, fmt.Errorf("core: value column %s must be int", valueCol)
		}
		out = append(out, gquery.Tuple{Group: row[gi].String(), Value: int64(v)})
	}
	return out, it.Err()
}

// Close releases the PDS's simulated resources.
func (p *PDS) Close() error { return p.Docs.Close() }

// Directory is the population of PDSs reachable for a global query (the
// role a public registry plays in the tutorial's architecture).
type Directory struct {
	members []*PDS
}

// Add registers a PDS.
func (d *Directory) Add(p *PDS) { d.members = append(d.members, p) }

// Len returns the population size.
func (d *Directory) Len() int { return len(d.members) }

// Members returns the registered PDSs.
func (d *Directory) Members() []*PDS { return d.members }

// CollectParticipants asks every member to contribute; members whose
// policy denies are skipped (and their refusal is in their own audit log).
func (d *Directory) CollectParticipants(requester, purpose, table, groupCol, valueCol string) ([]gquery.Participant, int) {
	var parts []gquery.Participant
	denied := 0
	for _, p := range d.members {
		tuples, err := p.Contribute(requester, purpose, table, groupCol, valueCol)
		if err != nil {
			denied++
			continue
		}
		parts = append(parts, gquery.Participant{ID: p.ID, Tuples: tuples})
	}
	return parts, denied
}

// Protocol selects a [TNP14] global aggregation protocol.
type Protocol int

// Available protocols.
const (
	SecureAgg Protocol = iota
	NoiseWhite
	NoiseControlled
	Histogram
	// HomomorphicAgg aggregates at the SSI under Paillier encryption;
	// SUM/COUNT only (no MIN/MAX), frequency histogram leaks.
	HomomorphicAgg
)

func (p Protocol) String() string {
	switch p {
	case SecureAgg:
		return "secure-agg"
	case NoiseWhite:
		return "noise-white"
	case NoiseControlled:
		return "noise-controlled"
	case Histogram:
		return "histogram"
	case HomomorphicAgg:
		return "homomorphic-agg"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// GlobalQuery describes one privacy-preserving aggregate over a directory.
type GlobalQuery struct {
	Requester string
	Purpose   string
	Table     string
	GroupCol  string
	ValueCol  string
	Protocol  Protocol
	// Domain is the public group domain (needed by noise & histogram).
	Domain []string
	// NoisePerTuple is the fake-tuple ratio for the noise protocols.
	NoisePerTuple float64
	// Buckets is the histogram bucket count.
	Buckets int
	// ChunkSize is the SecureAgg partition size (default 64).
	ChunkSize int
	// SSIMode and SSIBehavior configure the adversary.
	SSIMode     ssi.Mode
	SSIBehavior ssi.Behavior
	Seed        int64
}

// GlobalResult is the outcome of a global query.
type GlobalResult struct {
	Result       gquery.Result
	Stats        gquery.RunStats
	Participants int
	Denied       int
	SSI          ssi.Observations
}

// Run executes the global query over the directory, using the first
// member's keyring (all certified tokens share it).
func (d *Directory) Run(q GlobalQuery) (*GlobalResult, error) {
	if len(d.members) == 0 {
		return nil, errors.New("core: empty directory")
	}
	parts, denied := d.CollectParticipants(q.Requester, q.Purpose, q.Table, q.GroupCol, q.ValueCol)
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: every member refused", ErrDenied)
	}
	net := netsim.New()
	srv := ssi.New(net, q.SSIMode, q.SSIBehavior)
	kr := d.members[0].Keyring
	if q.ChunkSize == 0 {
		q.ChunkSize = 64
	}

	out := &GlobalResult{Participants: len(parts), Denied: denied}
	eng := gquery.New()
	var err error
	switch q.Protocol {
	case SecureAgg:
		out.Result, out.Stats, err = eng.SecureAgg(net, srv, parts, kr, q.ChunkSize)
	case NoiseWhite:
		out.Result, out.Stats, err = eng.Noise(net, srv, parts, kr, q.Domain, q.NoisePerTuple, gquery.WhiteNoise, q.Seed)
	case NoiseControlled:
		out.Result, out.Stats, err = eng.Noise(net, srv, parts, kr, q.Domain, q.NoisePerTuple, gquery.ControlledNoise, q.Seed)
	case Histogram:
		buckets, berr := gquery.EquiDepthBuckets(q.Domain, nil, q.Buckets)
		if berr != nil {
			return nil, berr
		}
		var br gquery.BucketResult
		br, out.Stats, err = eng.Histogram(net, srv, parts, kr, buckets)
		if err == nil {
			out.Result = gquery.EstimateGroups(br, buckets)
		}
	case HomomorphicAgg:
		// The querier's key pair; in deployment provisioned once, here
		// generated per run.
		sk, kerr := privcrypto.GeneratePaillier(512, nil)
		if kerr != nil {
			return nil, kerr
		}
		out.Result, out.Stats, err = eng.PaillierAgg(net, srv, parts, kr, sk.Public(), sk)
	default:
		return nil, fmt.Errorf("core: unknown protocol %v", q.Protocol)
	}
	out.SSI = srv.Observations()
	if err != nil {
		return out, err
	}
	return out, nil
}
