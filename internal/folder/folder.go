// Package folder implements the tutorial's Perspectives field experiment:
// the personal social-medical folder. Each patient owns her folder on a
// secure token at home; practitioners keep partial replicas; a central
// server archives an encrypted copy; and replicas synchronize through
// smart badges physically carried between sites — no network link
// required. Convergence relies on per-document version stamps with a
// deterministic last-writer-wins order, and the central archive only ever
// stores ciphertext.
package folder

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pds/internal/privcrypto"
)

// Stamp orders document versions: higher Counter wins; ties break on
// Writer id, making merge deterministic and commutative.
type Stamp struct {
	Counter int64
	Writer  string
}

// Newer reports whether s supersedes o.
func (s Stamp) Newer(o Stamp) bool {
	if s.Counter != o.Counter {
		return s.Counter > o.Counter
	}
	return s.Writer > o.Writer
}

// Document is one care-coordination record (prescription, nurse note,
// social report, ...).
type Document struct {
	ID       string
	Category string // ACL collection, e.g. "medical/prescriptions"
	Body     []byte
	Stamp    Stamp
}

// Replica is one copy of a patient's folder: the patient's own token, a
// practitioner's device, or the central server's plaintext-free shadow
// (see Archive for the encrypted-at-rest form).
type Replica struct {
	mu    sync.Mutex
	Owner string
	docs  map[string]Document
	// clock is this replica's Lamport-style counter.
	clock int64
}

// NewReplica creates an empty replica owned by the named party.
func NewReplica(owner string) *Replica {
	return &Replica{Owner: owner, docs: map[string]Document{}}
}

// Put creates or updates a document, stamping it with this replica's
// authorship and a counter beyond everything it has seen.
func (r *Replica) Put(id, category string, body []byte) Document {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock++
	d := Document{
		ID:       id,
		Category: category,
		Body:     append([]byte(nil), body...),
		Stamp:    Stamp{Counter: r.clock, Writer: r.Owner},
	}
	r.docs[id] = d
	return d
}

// Len returns the number of documents.
func (r *Replica) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.docs)
}

// Docs returns all documents sorted by ID.
func (r *Replica) Docs() []Document {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Document, 0, len(r.docs))
	for _, d := range r.docs {
		d.Body = append([]byte(nil), d.Body...)
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// absorb merges one incoming document; returns true if it was applied.
func (r *Replica) absorb(d Document) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d.Stamp.Counter > r.clock {
		r.clock = d.Stamp.Counter
	}
	cur, ok := r.docs[d.ID]
	if ok && !d.Stamp.Newer(cur.Stamp) {
		return false
	}
	d.Body = append([]byte(nil), d.Body...)
	r.docs[d.ID] = d
	return true
}

// Badge is a smart badge physically carried between sites: it holds a
// folder snapshot and merges with every replica it touches, transporting
// updates in both directions without any network.
type Badge struct {
	ID    string
	cargo map[string]Document
	// Hops counts replica touches (the "cost" of disconnected sync).
	Hops int
}

// NewBadge creates an empty badge.
func NewBadge(id string) *Badge {
	return &Badge{ID: id, cargo: map[string]Document{}}
}

// Touch synchronizes the badge with a replica in both directions and
// returns (toReplica, toBadge) applied-update counts.
func (b *Badge) Touch(r *Replica) (int, int) {
	b.Hops++
	toReplica := 0
	for _, d := range b.cargo {
		if r.absorb(d) {
			toReplica++
		}
	}
	toBadge := 0
	for _, d := range r.Docs() {
		cur, ok := b.cargo[d.ID]
		if !ok || d.Stamp.Newer(cur.Stamp) {
			b.cargo[d.ID] = d
			toBadge++
		}
	}
	return toReplica, toBadge
}

// Converged reports whether all replicas hold identical folders.
func Converged(replicas ...*Replica) bool {
	if len(replicas) < 2 {
		return true
	}
	ref := replicas[0].Docs()
	for _, r := range replicas[1:] {
		docs := r.Docs()
		if len(docs) != len(ref) {
			return false
		}
		for i := range docs {
			if docs[i].ID != ref[i].ID || docs[i].Stamp != ref[i].Stamp ||
				string(docs[i].Body) != string(ref[i].Body) {
				return false
			}
		}
	}
	return true
}

// Archive is the central server's copy: encrypted snapshots only, keyed by
// the patient's token. The server can store and return blobs but never
// read them.
type Archive struct {
	mu    sync.Mutex
	blobs map[string][]byte // docID → ciphertext
}

// NewArchive creates an empty archive.
func NewArchive() *Archive { return &Archive{blobs: map[string][]byte{}} }

// ErrNotArchived reports a missing document.
var ErrNotArchived = errors.New("folder: document not in archive")

// RawBlob exposes a stored ciphertext (what a curious server sees).
func (a *Archive) RawBlob(id string) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.blobs[id]
	return append([]byte(nil), b...), ok
}

// Vault couples a patient replica with the archive through the patient's
// key: Backup encrypts and uploads, Restore downloads and decrypts.
type Vault struct {
	cipher *privcrypto.NonDetCipher
}

// NewVault derives the archive cipher from the patient's master key.
func NewVault(masterKey []byte) (*Vault, error) {
	c, err := privcrypto.NewNonDetCipher(masterKey)
	if err != nil {
		return nil, err
	}
	return &Vault{cipher: c}, nil
}

// Backup encrypts every document of the replica into the archive.
func (v *Vault) Backup(r *Replica, a *Archive) (int, error) {
	n := 0
	for _, d := range r.Docs() {
		blob, err := v.cipher.Encrypt(encodeDoc(d))
		if err != nil {
			return n, err
		}
		a.mu.Lock()
		a.blobs[d.ID] = blob
		a.mu.Unlock()
		n++
	}
	return n, nil
}

// Restore decrypts one archived document into the replica (disaster
// recovery after losing the token).
func (v *Vault) Restore(a *Archive, r *Replica, id string) error {
	a.mu.Lock()
	blob, ok := a.blobs[id]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotArchived, id)
	}
	pt, err := v.cipher.Decrypt(blob)
	if err != nil {
		return err
	}
	d, err := decodeDoc(pt)
	if err != nil {
		return err
	}
	r.absorb(d)
	return nil
}

// RestoreAll restores every archived document.
func (v *Vault) RestoreAll(a *Archive, r *Replica) (int, error) {
	a.mu.Lock()
	ids := make([]string, 0, len(a.blobs))
	for id := range a.blobs {
		ids = append(ids, id)
	}
	a.mu.Unlock()
	for _, id := range ids {
		if err := v.Restore(a, r, id); err != nil {
			return 0, err
		}
	}
	return len(ids), nil
}

// encodeDoc / decodeDoc use a compact length-prefixed form.
func encodeDoc(d Document) []byte {
	out := appendStr(nil, d.ID)
	out = appendStr(out, d.Category)
	out = appendStr(out, string(d.Body))
	out = appendStr(out, d.Stamp.Writer)
	out = append(out, byte(d.Stamp.Counter), byte(d.Stamp.Counter>>8),
		byte(d.Stamp.Counter>>16), byte(d.Stamp.Counter>>24),
		byte(d.Stamp.Counter>>32), byte(d.Stamp.Counter>>40),
		byte(d.Stamp.Counter>>48), byte(d.Stamp.Counter>>56))
	return out
}

func appendStr(dst []byte, s string) []byte {
	dst = append(dst, byte(len(s)), byte(len(s)>>8))
	return append(dst, s...)
}

func decodeDoc(data []byte) (Document, error) {
	var d Document
	off := 0
	read := func() (string, bool) {
		if off+2 > len(data) {
			return "", false
		}
		n := int(data[off]) | int(data[off+1])<<8
		off += 2
		if off+n > len(data) {
			return "", false
		}
		s := string(data[off : off+n])
		off += n
		return s, true
	}
	var ok bool
	if d.ID, ok = read(); !ok {
		return d, errors.New("folder: corrupt archive blob")
	}
	if d.Category, ok = read(); !ok {
		return d, errors.New("folder: corrupt archive blob")
	}
	var body string
	if body, ok = read(); !ok {
		return d, errors.New("folder: corrupt archive blob")
	}
	d.Body = []byte(body)
	if d.Stamp.Writer, ok = read(); !ok {
		return d, errors.New("folder: corrupt archive blob")
	}
	if off+8 != len(data) {
		return d, errors.New("folder: corrupt archive blob")
	}
	for i := 7; i >= 0; i-- {
		d.Stamp.Counter = d.Stamp.Counter<<8 | int64(data[off+i])
	}
	return d, nil
}
