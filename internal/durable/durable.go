// Package durable unifies the durable-store surface of the PDS engines.
// Three storage engines persist through the same commit-record journal
// (DESIGN §11) — the kv log store, the embedded search index and the
// embdb sequential tables — but each grew its own open/sync/reopen
// spelling. This package collapses them behind one contract: a Store is a
// live instance driven through a deterministic operation stream, and a
// Kind knows how to open a fresh instance on a flash allocator and how to
// reconstruct one from logstore.Recover output. The crash-recovery
// battery (internal/crashharness) and the multi-process store role of
// cmd/pdsd both drive Kinds generically, so a new engine joins every
// durability harness by adding one Kind here.
//
// A Sync is only the durability point. The reorganization its boundary
// owes (kv compacts on every third, search reorganizes on every second,
// embdb never: Kind.ReorgEvery) is a separate call, Reorganize, so a host
// can run it in the chip's idle time and the crash battery right after
// the sync. Whoever drives a store across its lifetime counts its
// boundaries, since a reopened instance starts with none.
package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"pds/internal/embdb"
	"pds/internal/flash"
	"pds/internal/kv"
	"pds/internal/logstore"
	"pds/internal/mcu"
	"pds/internal/search"
)

// Store is one live durable store behind the unified surface. Apply and
// Fingerprint make the store drivable by deterministic harnesses: Apply
// performs the op-th workload operation (pure in op), Sync is the
// durability point (flush + commit record, nothing else), and
// Fingerprint digests the logical contents canonically — equal across
// physical layouts, e.g. before and after compaction.
//
// Reorganize is the background half: it runs the engine's whole
// reorganization pass, the one a sync boundary owes at the Kind's
// cadence (Kind.Owes), whenever its caller pays that debt — a host
// carries it across an eviction and pays it on the reopened store — and
// embdb's is a no-op. Its switch record commits what it rewrote, so run
// right after Sync it moves the store from one layout of the
// acknowledged boundary to another.
//
// Close and Pages are the tenant-lifecycle half of the contract. Close
// releases the store's volatile resources (RAM reservations, buffered
// writers) WITHOUT disturbing the durable flash image: after Sync+Close,
// the instance is reconstructable with Kind.Reopen over logstore.Recover
// of the same chip — the evict-to-flash / reopen-on-demand cycle a
// multi-tenant host churns through. Close is idempotent and does not
// imply Sync; unsynced operations are lost, exactly as in a power cut.
// Pages is the store's current flash page footprint (the quota currency
// of a hosted tenant); it stays readable after Close, frozen at the
// closed value.
type Store interface {
	Apply(op int) error
	Sync() error
	Reorganize() error
	Fingerprint() (string, error)
	Close() error
	Pages() int
}

// Kind is one storage engine conforming to the durable contract.
type Kind struct {
	Name string
	// Ops and SyncEvery shape the engine's canonical crash workload.
	Ops       int
	SyncEvery int
	// ReorgEvery is the reorganization cadence: every ReorgEvery-th sync
	// boundary of a store owes a Reorganize; 0 never does.
	ReorgEvery int
	// CrashOps lists the fault kinds the engine's battery sweeps.
	CrashOps []flash.CrashOp
	// Open creates a fresh store (journal included) on alloc. The opened
	// store reports its page footprint through Store.Pages, so a hosting
	// quota can be enforced from the first write without engine-specific
	// spellings.
	Open func(alloc *flash.Allocator) (Store, error)
	// Reopen reconstructs the store from recovered state.
	Reopen func(rec *logstore.Recovered) (Store, error)
}

// Owes reports whether a store's syncs-th sync boundary, counted from
// its first Open across every Reopen, owes a reorganization. A second
// owed boundary merges into an unpaid first.
func (k Kind) Owes(syncs int) bool { return k.ReorgEvery > 0 && syncs%k.ReorgEvery == 0 }

// Kinds returns every conforming engine, in stable order.
func Kinds() []Kind {
	return []Kind{kvKind(), searchKind(), embdbKind()}
}

// kinds is the table ByName reads, built once: a host resolves a
// tenant's engine on every open, so it does not rebuild every Kind to
// find one. The Kinds it hands out share their CrashOps; callers read
// them only.
var kinds = Kinds()

// ByName resolves one engine by its Kind name.
func ByName(name string) (Kind, bool) {
	for _, k := range kinds {
		if k.Name == name {
			return k, true
		}
	}
	return Kind{}, false
}

// --- kv ---

const kvKeyUniverse = 17

// kvStore drives the kv log store: put/overwrite/delete with periodic
// compaction, fingerprinted by the full key universe.
type kvStore struct {
	s  *kv.Store
	fp footprint
}

// footprint implements the Close/Pages half of the Store contract for a
// conformer: live reads delegate, the closed value is frozen. release
// runs once, on the first Close, and must only drop volatile resources —
// never flash blocks.
type footprint struct {
	closed bool
	pages  int
}

func (f *footprint) close(pages func() int, release func()) error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.pages = pages()
	if release != nil {
		release()
	}
	return nil
}

func (f *footprint) read(pages func() int) int {
	if f.closed {
		return f.pages
	}
	return pages()
}

// kvKeys is the script's key universe: key-000 … key-016. The store
// copies what it keeps of a key, so every operation shares them.
var kvKeys = func() (k [kvKeyUniverse][]byte) {
	for i := range k {
		k[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	return k
}()

func (w *kvStore) key(i int) []byte { return kvKeys[i] }

// appendPadded appends n (never negative here) in decimal, zero-padded to
// width: fmt's %0*d without the boxing.
func appendPadded(dst []byte, n, width int) []byte {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(n), 10)
	for i := len(digits); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

func (w *kvStore) Apply(op int) error {
	key := w.key(op % kvKeyUniverse)
	if op%7 == 3 {
		return w.s.Delete(key)
	}
	// val-%05d-%032d of op and op², laid out where the store copies it from.
	var buf [64]byte
	val := appendPadded(append(buf[:0], "val-"...), op, 5)
	val = appendPadded(append(val, '-'), op*op, 32)
	return w.s.Put(key, val)
}

func (w *kvStore) Sync() error { return w.s.Sync() }

// Reorganize compacts the logs; Compact's switch record commits it.
func (w *kvStore) Reorganize() error { return w.s.Compact(2, 4) }

// Close drops the in-memory key index; the logs stay on flash for Reopen.
func (w *kvStore) Close() error { return w.fp.close(w.s.Pages, nil) }

// Pages reports the key/value/summary log footprint.
func (w *kvStore) Pages() int { return w.fp.read(w.s.Pages) }

func (w *kvStore) Fingerprint() (string, error) {
	h := sha256.New()
	for i := 0; i < kvKeyUniverse; i++ {
		v, _, err := w.s.Get(w.key(i))
		switch {
		case errors.Is(err, kv.ErrNotFound):
			fmt.Fprintf(h, "%03d=absent\n", i)
		case err != nil:
			return "", err
		default:
			fmt.Fprintf(h, "%03d=%s\n", i, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func kvKind() Kind {
	return Kind{
		Name:       "kv",
		Ops:        56,
		SyncEvery:  8,
		ReorgEvery: 3,
		CrashOps:   []flash.CrashOp{flash.CrashWrite, flash.CrashTornWrite, flash.CrashErase},
		Open: func(alloc *flash.Allocator) (Store, error) {
			s, err := kv.OpenDurable(alloc)
			if err != nil {
				return nil, err
			}
			return &kvStore{s: s}, nil
		},
		Reopen: func(rec *logstore.Recovered) (Store, error) {
			s, err := kv.Reopen(rec)
			if err != nil {
				return nil, err
			}
			return &kvStore{s: s}, nil
		},
	}
}

// --- search ---

const (
	searchBuckets = 4
	searchVocab   = 10
	searchArena   = 8192
)

// searchTerms is the script's vocabulary: term-00 … term-09.
var searchTerms = func() (t [searchVocab]string) {
	for i := range t {
		t[i] = fmt.Sprintf("term-%02d", i)
	}
	return t
}()

func searchTerm(i int) string { return searchTerms[i%searchVocab] }

// searchStore drives the embedded search index: three-term documents with
// periodic reorganization, fingerprinted by per-term document frequencies
// and ranked scores.
type searchStore struct {
	e  *search.Engine
	fp footprint
}

func (w *searchStore) pages() int { return w.e.Pages() + w.e.CompactPages() }

// Close releases the engine's RAM reservation (Detach); the bucket chains
// and compact directory stay on flash for Reopen.
func (w *searchStore) Close() error { return w.fp.close(w.pages, w.e.Detach) }

// Pages reports the chain + compact-area footprint.
func (w *searchStore) Pages() int { return w.fp.read(w.pages) }

func (w *searchStore) Apply(op int) error {
	doc := map[string]int{
		searchTerm(op):       op%4 + 1,
		searchTerm(op*5 + 1): op%3 + 1,
		searchTerm(op*7 + 3): 1,
	}
	_, err := w.e.AddDocument(doc)
	return err
}

func (w *searchStore) Sync() error { return w.e.Sync() }

// Reorganize merges the bucket chains into the compact index behind one
// switch record.
func (w *searchStore) Reorganize() error { return w.e.Reorganize(2, 4) }

func (w *searchStore) Fingerprint() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "ndocs=%d next=%d\n", w.e.NumDocs(), w.e.NextDoc())
	for i := 0; i < searchVocab; i++ {
		t := searchTerm(i)
		fmt.Fprintf(h, "%s df=%d:", t, w.e.DocFreq(t))
		if w.e.DocFreq(t) > 0 {
			res, err := w.e.Search([]string{t}, 64)
			if err != nil {
				return "", err
			}
			for _, r := range res {
				fmt.Fprintf(h, " %d=%.9f", r.Doc, r.Score)
			}
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func searchKind() Kind {
	return Kind{
		Name:       "search",
		Ops:        36,
		SyncEvery:  6,
		ReorgEvery: 2,
		CrashOps:   []flash.CrashOp{flash.CrashWrite, flash.CrashTornWrite, flash.CrashErase},
		Open: func(alloc *flash.Allocator) (Store, error) {
			e, err := search.OpenDurable(alloc, mcu.NewArena(searchArena), searchBuckets)
			if err != nil {
				return nil, err
			}
			return &searchStore{e: e}, nil
		},
		Reopen: func(rec *logstore.Recovered) (Store, error) {
			e, err := search.Reopen(rec, mcu.NewArena(searchArena), searchBuckets)
			if err != nil {
				return nil, err
			}
			return &searchStore{e: e}, nil
		},
	}
}

// --- embdb ---

var embdbSchema = embdb.NewSchema(embdb.Column{Name: "id", Type: embdb.Int}, embdb.Column{Name: "name", Type: embdb.Str})

// embdbStore drives one sequential table, fingerprinted by a full scan
// plus a random access that must agree with it after any recovery.
type embdbStore struct {
	t  *embdb.Table
	j  *logstore.Journal
	fp footprint
}

// Close drops the table handle; the sequential log stays on flash.
func (w *embdbStore) Close() error { return w.fp.close(w.t.Pages, nil) }

// Pages reports the sequential-log footprint.
func (w *embdbStore) Pages() int { return w.fp.read(w.t.Pages) }

func (w *embdbStore) Apply(op int) error {
	// customer-%04d-padding
	var buf [48]byte
	name := append(appendPadded(append(buf[:0], "customer-"...), op, 4), "-padding"...)
	_, err := w.t.Insert(embdb.Row{embdb.IntVal(int64(op)), embdb.StrVal(name)})
	return err
}

func (w *embdbStore) Sync() error { return embdb.SyncTables(w.j, w.t) }

// Reorganize has nothing to do: a sequential table never reorganizes.
func (w *embdbStore) Reorganize() error { return nil }

func (w *embdbStore) Fingerprint() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "rows=%d\n", w.t.Len())
	it := w.t.Scan()
	for {
		row, rid, ok := it.Next()
		if !ok {
			break
		}
		fmt.Fprintf(h, "%d: %v|%v\n", rid, row[0], row[1])
	}
	if err := it.Err(); err != nil {
		return "", err
	}
	if w.t.Len() > 0 {
		row, err := w.t.Get(embdb.RowID(w.t.Len() - 1))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "last=%v\n", row[0])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func embdbKind() Kind {
	return Kind{
		Name:      "embdb",
		Ops:       45,
		SyncEvery: 9,
		CrashOps:  []flash.CrashOp{flash.CrashWrite, flash.CrashTornWrite},
		Open: func(alloc *flash.Allocator) (Store, error) {
			j, err := logstore.NewJournal(alloc)
			if err != nil {
				return nil, err
			}
			return &embdbStore{t: embdb.NewTable(alloc, "customer", embdbSchema), j: j}, nil
		},
		Reopen: func(rec *logstore.Recovered) (Store, error) {
			t, err := embdb.ReopenTable(rec, "customer", embdbSchema)
			if err != nil {
				return nil, err
			}
			return &embdbStore{t: t, j: rec.Journal}, nil
		},
	}
}
