// Package kv extends the tutorial's log-only framework to the key-value
// data model — one of the "remaining challenges" Part II closes with
// ("extend the principles to other data models: ... noSQL & key-value
// stores"). The same three-step recipe applies:
//
//  1. puts append (key → value-location) bindings to a sequential key log
//     (values themselves live in an append-only value log);
//  2. every key-log page gets a ~2 B/key Bloom summary, so a get scans
//     the small summary log and probes only plausible pages — newest
//     first, because the latest binding wins;
//  3. compaction reorganizes the logs: bindings are sorted (stable, so
//     recency survives), dead versions and tombstones drop out, and live
//     values are rewritten sequentially. Only sequential structures are
//     ever written; deallocation is block-grain.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pds/internal/bloom"
	"pds/internal/flash"
	"pds/internal/logstore"
)

// Errors returned by the store.
var (
	ErrNotFound    = errors.New("kv: key not found")
	ErrKeyTooLarge = errors.New("kv: key too large for a key-log page")
	ErrClosed      = errors.New("kv: store closed")
)

// binding flags.
const (
	flagTombstone = 1 << 0
)

// binding is one key-log entry: key → value record (or tombstone).
type binding struct {
	key   []byte
	ref   logstore.RecordID
	flags byte
}

// bindingOverhead is what a binding's record adds to its key.
const bindingOverhead = 2 + 4 + 4 + 1

// appendBinding appends b's record: u16 keyLen | key | u32 page | u32 slot
// | u8 flags. The logs copy what they are handed, so callers encode into
// a buffer on their stack.
func appendBinding(dst []byte, b binding) []byte {
	var num [9]byte
	binary.LittleEndian.PutUint16(num[0:2], uint16(len(b.key)))
	dst = append(append(dst, num[0:2]...), b.key...)
	binary.LittleEndian.PutUint32(num[0:4], uint32(b.ref.Page))
	binary.LittleEndian.PutUint32(num[4:8], uint32(b.ref.Slot))
	num[8] = b.flags
	return append(dst, num[:]...)
}

// bindingBuf holds the binding of any key the hosted scripts and the
// examples use; a longer key spills to the heap.
type bindingBuf [96]byte

func decodeBinding(rec []byte) (binding, error) {
	if len(rec) < bindingOverhead {
		return binding{}, fmt.Errorf("kv: short binding (%d bytes)", len(rec))
	}
	n := int(binary.LittleEndian.Uint16(rec[0:2]))
	if n+bindingOverhead != len(rec) {
		return binding{}, fmt.Errorf("kv: corrupt binding")
	}
	off := 2 + n
	return binding{
		key: rec[2 : 2+n],
		ref: logstore.RecordID{
			Page: int32(binary.LittleEndian.Uint32(rec[off:])),
			Slot: int32(binary.LittleEndian.Uint32(rec[off+4:])),
		},
		flags: rec[off+8],
	}, nil
}

// Stream names the store commits under (DESIGN §11).
const (
	streamValues = "kv.values"
	streamKeys   = "kv.keys"
	streamSums   = "kv.sums"
)

// Store is a log-only key-value store on simulated NAND flash. Its key
// log is summarized: the summary of a key-log page is u32 page | Bloom
// filter of its keys.
type Store struct {
	alloc  *flash.Allocator
	values *logstore.Log
	keys   *logstore.Log
	puts   int
	closed bool
	// j, when set, is the commit-record journal of the durable mode:
	// Sync flushes and commits, Reopen recovers to the last commit.
	j *logstore.Journal
	// lead is the old structure of the compaction under way.
	lead leadingRun
}

// Open creates an empty store drawing blocks from alloc.
func Open(alloc *flash.Allocator) *Store {
	return &Store{
		alloc:  alloc,
		values: logstore.NewLog(alloc),
		keys:   logstore.NewSummarized(alloc, summarize),
	}
}

// OpenDurable creates an empty store with a commit-record journal on a
// fresh chip: Sync becomes a durability point, and Reopen recovers the
// store to the newest committed state after a crash.
func OpenDurable(alloc *flash.Allocator) (*Store, error) {
	j, err := logstore.NewJournal(alloc)
	if err != nil {
		return nil, err
	}
	s := Open(alloc)
	s.j = j
	return s, nil
}

// manifest captures the committed extent of the three logs. The caller
// must have flushed first.
func (s *Store) manifest() *logstore.Manifest {
	return &logstore.Manifest{Streams: []logstore.Stream{
		logstore.StreamOf(streamValues, s.values),
		logstore.StreamOf(streamKeys, s.keys),
		s.keys.SummaryStream(streamSums),
	}}
}

// Sync is the store's durability point: it flushes every buffered page
// and appends a commit record covering them. Puts acknowledged by a
// completed Sync survive any later crash; puts after the last completed
// Sync may be lost (prefix semantics, DESIGN §11). On a store without a
// journal Sync degrades to Flush.
func (s *Store) Sync() error {
	if s.closed {
		return ErrClosed
	}
	if err := s.Flush(); err != nil {
		return err
	}
	if s.j == nil {
		return nil
	}
	return s.j.Commit(s.manifest())
}

// Reopen recovers a durable store from rec, the result of log-replay
// recovery on a reopened chip. The store comes back exactly at its last
// commit record; the put count is re-derived from the committed key log.
func Reopen(rec *logstore.Recovered) (*Store, error) {
	values, err := rec.OpenLog(streamValues)
	if err != nil {
		return nil, err
	}
	keys, err := rec.OpenSummarized(streamKeys, streamSums, summarize)
	if err != nil {
		return nil, err
	}
	return &Store{
		alloc:  rec.Alloc,
		values: values,
		keys:   keys,
		puts:   keys.Len(),
		j:      rec.Journal,
	}, nil
}

// summarize appends the Bloom filter of a key-log page's keys.
func summarize(dst []byte, page logstore.PageView) ([]byte, error) {
	f := bloom.NewPageSummary(page.Len())
	for {
		rec, ok := page.Next()
		if !ok {
			break
		}
		b, err := decodeBinding(rec)
		if err != nil {
			return nil, err
		}
		f.Add(b.key)
	}
	blob, err := f.MarshalBinary()
	return append(dst, blob...), err
}

// Len returns the number of puts (including overwrites and deletes).
func (s *Store) Len() int { return s.puts }

// Pages returns the flash pages used by all three logs.
func (s *Store) Pages() int { return s.values.Pages() + s.keys.Pages() + s.keys.SummaryPages() }

// Put writes key → value.
func (s *Store) Put(key, value []byte) error {
	return s.append(key, value, 0)
}

// Delete writes a tombstone for key (idempotent).
func (s *Store) Delete(key []byte) error {
	return s.append(key, nil, flagTombstone)
}

func (s *Store) append(key, value []byte, flags byte) error {
	if s.closed {
		return ErrClosed
	}
	// The binding must fit a key-log page before the value log is touched.
	if limit := logstore.MaxRecord(s.alloc.Chip().Geometry()) - bindingOverhead; len(key) > limit {
		return fmt.Errorf("%w: %d bytes, the limit on this chip is %d", ErrKeyTooLarge, len(key), limit)
	}
	ref, err := s.values.Append(value)
	if err != nil {
		return err
	}
	var buf bindingBuf
	if _, err := s.keys.Append(appendBinding(buf[:0], binding{key: key, ref: ref, flags: flags})); err != nil {
		return err
	}
	s.puts++
	return nil
}

// Flush persists buffered pages.
func (s *Store) Flush() error {
	if err := s.values.Flush(); err != nil {
		return err
	}
	return s.keys.Flush()
}

// GetStats describes the work one Get performed.
type GetStats struct {
	SummaryPages int
	KeyPages     int
	FalseProbes  int
}

// latest returns the newest binding of key on page — the last in page
// order. A record that does not decode fails the probe unless a binding of
// key follows it: the newest binding wins before an older record is looked
// at.
func latest(page logstore.PageView, key []byte) (b binding, found bool, err error) {
	for {
		rec, ok := page.Next()
		if !ok {
			return b, found, err
		}
		cand, derr := decodeBinding(rec)
		switch {
		case derr != nil:
			found, err = false, derr
		case string(cand.key) == string(key):
			b, found, err = cand, true, nil
		}
	}
}

// Get returns the latest value for key (ErrNotFound for absent or deleted
// keys). It probes candidate key pages newest first and stops at the first
// (i.e. most recent) binding. Summaries are tested and bindings compared
// where they lie, in the summary iterator's page and one more.
func (s *Store) Get(key []byte) ([]byte, GetStats, error) {
	var st GetStats
	if s.closed {
		return nil, st, ErrClosed
	}
	// Unflushed bindings are the newest of all.
	b, found, err := latest(s.keys.Unflushed(), key)
	if err != nil {
		return nil, st, err
	}
	if found {
		return s.resolve(b, st)
	}
	// Collect candidate pages from the summary log (small, sequential).
	st.SummaryPages = s.keys.SummaryPages()
	var few [8]int // a key's live candidates are its page and the odd false positive
	candidates := few[:0]
	if err := s.keys.Summaries(func(page int, sum []byte) error {
		f, err := bloom.ViewOf(sum)
		if err == nil && f.Test(key) {
			candidates = append(candidates, page)
		}
		return err
	}); err != nil {
		return nil, st, err
	}
	// Probe newest candidate pages first.
	buf := s.keys.PageBuf()
	defer logstore.PutPageBuf(buf)
	for i := len(candidates) - 1; i >= 0; i-- {
		page, err := s.keys.ReadPage(candidates[i], *buf)
		if err != nil {
			return nil, st, err
		}
		st.KeyPages++
		b, found, err := latest(page, key)
		if err != nil {
			return nil, st, err
		}
		if found {
			return s.resolve(b, st)
		}
		st.FalseProbes++
	}
	return nil, st, ErrNotFound
}

// resolve fetches the value behind a binding.
func (s *Store) resolve(b binding, st GetStats) ([]byte, GetStats, error) {
	if b.flags&flagTombstone != 0 {
		return nil, st, ErrNotFound
	}
	v, err := s.values.ReadAt(b.ref)
	if err != nil {
		return nil, st, err
	}
	return v, st, nil
}

// ScanGet is the baseline get: a full backward-less scan of the whole key
// log (no summaries), for cost comparison.
func (s *Store) ScanGet(key []byte) ([]byte, error) {
	var last *binding
	it := s.keys.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		b, err := decodeBinding(rec)
		if err != nil {
			return nil, err
		}
		if string(b.key) == string(key) {
			cp := b
			cp.key = append([]byte(nil), b.key...)
			last = &cp
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	if last == nil || last.flags&flagTombstone != 0 {
		return nil, ErrNotFound
	}
	return s.values.ReadAt(last.ref)
}

// leadingRun yields the key log's first left records: its leading run,
// the old structure a compaction folds the rest of the log into. It is a
// field of the Store, so handing it to the sort allocates nothing.
type leadingRun struct {
	it   logstore.Iterator
	left int
}

func (r *leadingRun) Next() ([]byte, bool, error) {
	if r.left == 0 {
		return nil, false, nil
	}
	r.left--
	rec, _, ok := r.it.Next()
	if !ok {
		return nil, false, errors.Join(errors.New("kv: key log shorter than its leading run"), r.it.Err())
	}
	return rec, true, nil
}

// release hands the iterator's page back and forgets the log it read.
func (r *leadingRun) release() {
	r.it.Release()
	*r = leadingRun{}
}

// Compact reorganizes the store: bindings are stably sorted by key, only
// the latest version of each key survives, tombstoned keys vanish, and
// live values are rewritten into a fresh sequential value log. The old
// blocks are freed at block grain. Compaction uses only log structures
// (runPages/fanIn bound the sort RAM, as in the tutorial's reorganization).
//
// The key log's leading run of strictly ascending keys is already sorted:
// after a compaction it is exactly the compacted bindings. Only the
// bindings after it go through the external sort, whose final merge folds
// in the leading run as its old structure, the run's binding first on
// equal keys. That is the stable sort of the whole log: the run holds at
// most one binding per key, and each of its bindings precedes every later
// one.
//
// A compaction that fails before its switch record lands leaves the store
// as it was and frees every block it wrote.
func (s *Store) Compact(runPages, fanIn int) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.Flush(); err != nil {
		return err
	}
	// Find the end of the leading run: the binding that ends it heads the
	// rest of the log.
	scan := s.keys.Iter()
	defer scan.Release()
	var lastBuf bindingBuf
	last := lastBuf[:0]
	ordered := 0
	var head []byte
	for {
		rec, _, ok := scan.Next()
		if !ok {
			if err := scan.Err(); err != nil {
				return err
			}
			break
		}
		b, err := decodeBinding(rec)
		if err != nil {
			return err
		}
		if ordered > 0 && string(b.key) <= string(last) {
			head = rec
			break
		}
		last = append(last[:0], b.key...)
		ordered++
	}
	rest := func() ([]byte, bool, error) {
		if rec := head; rec != nil {
			head = nil
			return rec, true, nil
		}
		rec, _, ok := scan.Next()
		return rec, ok, scan.Err()
	}
	// The leading run, read a second time, is the old structure the sort
	// folds the rest into.
	s.lead = leadingRun{it: *s.keys.Iter(), left: ordered}
	defer s.lead.release()
	sorted, err := logstore.SortStream(s.alloc, &s.lead, rest, bindingLess, runPages, fanIn)
	if err != nil {
		return err
	}
	defer sorted.Drop()
	next, err := s.rebuild(func() (binding, bool, error) {
		rec, ok := sorted.Next()
		if !ok {
			return binding{}, false, sorted.Err()
		}
		b, err := decodeBinding(rec)
		return b, err == nil, err
	})
	if err != nil {
		return err
	}
	if err := sorted.Drop(); err != nil {
		return errors.Join(err, next.dropLogs())
	}
	return s.switchTo(next)
}

// bindingLess orders encoded bindings by key. A binding that does not
// decode is before nothing and nothing is before it; rebuild rejects it.
func bindingLess(a, b []byte) bool {
	ba, errA := decodeBinding(a)
	bb, errB := decodeBinding(b)
	if errA != nil || errB != nil {
		return false
	}
	return string(ba.key) < string(bb.key)
}

// rebuild writes the logs of a compacted store from bindings, which
// yields every binding in key order, equal keys oldest first: the last
// binding of each key survives unless it is a tombstone, and its value is
// copied into the new value log, read through one held page of RAM. The
// new logs are flushed; a failure drops them.
func (s *Store) rebuild(bindings func() (binding, bool, error)) (_ *Store, err error) {
	next := Open(s.alloc)
	defer func() {
		if err != nil {
			err = errors.Join(err, next.dropLogs())
		}
	}()
	var vals logstore.HeldPage
	defer vals.Release()
	var keyBuf bindingBuf
	pendKey := keyBuf[:0]
	var pend binding
	havePend := false
	emit := func() error {
		if !havePend || pend.flags&flagTombstone != 0 {
			return nil
		}
		val, err := s.values.ViewHeld(pend.ref, &vals)
		if err != nil {
			return err
		}
		ref, err := next.values.Append(val)
		if err != nil {
			return err
		}
		var buf bindingBuf
		if _, err := next.keys.Append(appendBinding(buf[:0], binding{key: pendKey, ref: ref})); err != nil {
			return err
		}
		next.puts++
		return nil
	}
	for {
		b, ok, err := bindings()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if havePend && string(b.key) != string(pendKey) {
			if err := emit(); err != nil {
				return nil, err
			}
		}
		pendKey = append(pendKey[:0], b.key...)
		pend = binding{key: pendKey, ref: b.ref, flags: b.flags}
		havePend = true
	}
	if err := emit(); err != nil {
		return nil, err
	}
	return next, next.Flush()
}

// switchTo makes next's logs the store's. In durable mode the commit
// record referencing the new logs is the switch point (DESIGN §11). Until
// it lands the old structure stays authoritative — a crash anywhere during
// the rebuild recovers the old logs and reclaims the half-built new ones;
// a crash after it recovers the new logs and reclaims the old. A commit
// whose record did not land keeps the old logs and drops next's.
func (s *Store) switchTo(next *Store) error {
	var commitErr error
	if s.j != nil {
		seq := s.j.Seq()
		if commitErr = s.j.Commit(next.manifest()); commitErr != nil && s.j.Seq() == seq {
			return errors.Join(commitErr, next.dropLogs())
		}
	}
	old := [2]*logstore.Log{s.values, s.keys}
	s.values, s.keys = next.values, next.keys
	s.puts = next.puts
	if commitErr != nil {
		return commitErr
	}
	// Free the superseded blocks only after the switch record is durable.
	for _, l := range old {
		if err := l.Drop(); err != nil {
			return err
		}
	}
	return nil
}

// dropLogs frees the blocks of all three logs.
func (s *Store) dropLogs() error {
	return errors.Join(s.values.Drop(), s.keys.Drop())
}

// Close drops every log.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.dropLogs()
}
