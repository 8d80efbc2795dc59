// Commit records: the durability backbone of the crash-consistency
// contract (DESIGN §11). A Journal owns one erase block at a time and
// appends single-page, CRC-protected commit records to it. Each record
// carries a Manifest — the complete description of every committed stream
// (its blocks, flushed page count and flushed record count) plus an opaque
// application payload. Recovery scans for the record with the highest
// sequence number; everything it does not reference is garbage.
//
// The journal lives at a fixed address — blocks JournalBlockA and
// JournalBlockB, the "journal area" — so recovery can find the newest
// record by scanning exactly two blocks, the way a real controller scans
// its superblock area. Records fill one block of the pair; when it is
// full the journal ping-pongs: the partner block (which only holds
// strictly older records, if any) is erased and the next record opens it.
//
// Crash safety of Commit:
//
//   - a crash before the record page is programmed (or a torn record
//     page, which fails the CRC) leaves the previous record
//     authoritative;
//   - the partner block is erased only while the current block holds the
//     winning record, so at every instant at least one valid record
//     exists on flash (once the first commit landed);
//   - an interrupted erase of the partner leaves stale or corrupt
//     records that lose on sequence number or CRC.
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pds/internal/flash"
)

// Errors of the journal/recovery plane.
var (
	ErrManifestTooLarge = errors.New("logstore: manifest exceeds one page")
	ErrCorruptManifest  = errors.New("logstore: corrupt manifest")
)

// journalMagic opens every commit-record page ("PDSJ", little-endian).
const journalMagic = 0x4a534450

// The journal area: two fixed erase blocks reserved for commit records.
const (
	JournalBlockA = 0
	JournalBlockB = 1
)

// Record layout: u32 magic | u64 seq | u32 payloadLen | payload | u32 crc.
// The CRC (IEEE) covers everything before it.
const journalHeader = 4 + 8 + 4
const journalTrailer = 4

// MaxManifest returns the largest encoded manifest a commit record can
// carry under geometry g.
func MaxManifest(g flash.Geometry) int { return g.PageSize - journalHeader - journalTrailer }

// Stream describes one committed log structure inside a Manifest.
type Stream struct {
	Name   string
	Blocks []int // erase blocks, allocation order
	Pages  int   // flushed pages
	Recs   int   // flushed records (0 for raw page writers)
}

// Manifest is the payload of one commit record: the full set of committed
// streams plus an opaque application payload (store-level RAM state).
type Manifest struct {
	Seq     uint64
	Streams []Stream
	App     []byte
}

// Stream returns the named stream, or nil.
func (m *Manifest) Stream(name string) *Stream {
	for i := range m.Streams {
		if m.Streams[i].Name == name {
			return &m.Streams[i]
		}
	}
	return nil
}

// StreamOf captures a Log's committed extent as a manifest stream. The
// caller must have Flushed the log first: only flushed pages are covered
// by the commit.
func StreamOf(name string, l *Log) Stream {
	return Stream{
		Name:   name,
		Blocks: append([]int(nil), l.Blocks()...),
		Pages:  l.Pages(),
		Recs:   l.flushedRecs,
	}
}

// StreamOfWriter captures a raw PageWriter's extent as a manifest stream.
func StreamOfWriter(name string, w *PageWriter) Stream {
	return Stream{
		Name:   name,
		Blocks: append([]int(nil), w.Blocks()...),
		Pages:  w.Pages(),
	}
}

// encodeManifest serializes m (without Seq, which lives in the record
// header): u16 nstreams | streams | u16 appLen | app, each stream being
// u8 nameLen | name | u32 pages | u32 recs | u16 nblocks | nblocks × u32.
func encodeManifest(m *Manifest) ([]byte, error) {
	size := 2 + 2 + len(m.App)
	for _, s := range m.Streams {
		size += 1 + len(s.Name) + 10 + 4*len(s.Blocks)
	}
	out := make([]byte, 2, size)
	binary.LittleEndian.PutUint16(out, uint16(len(m.Streams)))
	for _, s := range m.Streams {
		if len(s.Name) > 255 {
			return nil, fmt.Errorf("%w: stream name %q too long", ErrCorruptManifest, s.Name[:16])
		}
		out = append(out, byte(len(s.Name)))
		out = append(out, s.Name...)
		var b10 [10]byte
		binary.LittleEndian.PutUint32(b10[0:4], uint32(s.Pages))
		binary.LittleEndian.PutUint32(b10[4:8], uint32(s.Recs))
		binary.LittleEndian.PutUint16(b10[8:10], uint16(len(s.Blocks)))
		out = append(out, b10[:]...)
		for _, blk := range s.Blocks {
			var b4 [4]byte
			binary.LittleEndian.PutUint32(b4[:], uint32(blk))
			out = append(out, b4[:]...)
		}
	}
	var b2 [2]byte
	binary.LittleEndian.PutUint16(b2[:], uint16(len(m.App)))
	out = append(out, b2[:]...)
	out = append(out, m.App...)
	return out, nil
}

// decodeManifest parses a manifest payload, validating it against the
// chip geometry: block ids in range, page counts consistent with the
// block count, no block owned twice. Every failure is ErrCorruptManifest.
func decodeManifest(payload []byte, g flash.Geometry) (*Manifest, error) {
	bad := func(f string, a ...interface{}) (*Manifest, error) {
		return nil, fmt.Errorf("%w: "+f, append([]interface{}{ErrCorruptManifest}, a...)...)
	}
	if len(payload) < 2 {
		return bad("short payload")
	}
	n := int(binary.LittleEndian.Uint16(payload))
	off := 2
	m := &Manifest{}
	owned := make(map[int]bool)
	for i := 0; i < n; i++ {
		if off+1 > len(payload) {
			return bad("stream %d name header past end", i)
		}
		nl := int(payload[off])
		off++
		if off+nl+10 > len(payload) {
			return bad("stream %d header past end", i)
		}
		s := Stream{Name: string(payload[off : off+nl])}
		off += nl
		s.Pages = int(binary.LittleEndian.Uint32(payload[off : off+4]))
		s.Recs = int(binary.LittleEndian.Uint32(payload[off+4 : off+8]))
		nb := int(binary.LittleEndian.Uint16(payload[off+8 : off+10]))
		off += 10
		if off+4*nb > len(payload) {
			return bad("stream %s blocks past end", s.Name)
		}
		s.Blocks = make([]int, 0, nb)
		for j := 0; j < nb; j++ {
			blk := int(binary.LittleEndian.Uint32(payload[off : off+4]))
			off += 4
			if blk < 0 || blk >= g.Blocks {
				return bad("stream %s block %d out of range", s.Name, blk)
			}
			if owned[blk] {
				return bad("block %d owned twice", blk)
			}
			owned[blk] = true
			s.Blocks = append(s.Blocks, blk)
		}
		// Page count must fit the owned blocks exactly.
		if s.Pages < 0 || s.Pages > nb*g.PagesPerBlock || (nb > 0 && s.Pages <= (nb-1)*g.PagesPerBlock) {
			return bad("stream %s has %d pages in %d blocks", s.Name, s.Pages, nb)
		}
		if nb == 0 && s.Pages != 0 {
			return bad("stream %s has pages but no blocks", s.Name)
		}
		m.Streams = append(m.Streams, s)
	}
	if off+2 > len(payload) {
		return bad("app header past end")
	}
	al := int(binary.LittleEndian.Uint16(payload[off : off+2]))
	off += 2
	if off+al > len(payload) {
		return bad("app payload past end")
	}
	m.App = append([]byte(nil), payload[off:off+al]...)
	return m, nil
}

// encodeRecord builds one commit-record page image.
func encodeRecord(seq uint64, payload []byte) []byte {
	rec := make([]byte, journalHeader+len(payload)+journalTrailer)
	binary.LittleEndian.PutUint32(rec[0:4], journalMagic)
	binary.LittleEndian.PutUint64(rec[4:12], seq)
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(payload)))
	copy(rec[journalHeader:], payload)
	crc := crc32.ChecksumIEEE(rec[:journalHeader+len(payload)])
	binary.LittleEndian.PutUint32(rec[journalHeader+len(payload):], crc)
	return rec
}

// decodeRecord parses a page image as a commit record. ok=false means the
// page is not a (whole, uncorrupted) commit record — torn pages, garbage
// and foreign pages all land there.
func decodeRecord(img []byte) (seq uint64, payload []byte, ok bool) {
	if len(img) < journalHeader+journalTrailer {
		return 0, nil, false
	}
	if binary.LittleEndian.Uint32(img[0:4]) != journalMagic {
		return 0, nil, false
	}
	seq = binary.LittleEndian.Uint64(img[4:12])
	n := int(binary.LittleEndian.Uint32(img[12:16]))
	if n < 0 || journalHeader+n+journalTrailer > len(img) {
		return 0, nil, false
	}
	want := binary.LittleEndian.Uint32(img[journalHeader+n : journalHeader+n+journalTrailer])
	if crc32.ChecksumIEEE(img[:journalHeader+n]) != want {
		return 0, nil, false
	}
	return seq, img[journalHeader : journalHeader+n], true
}

// Journal appends commit records into the fixed journal area. It is not
// safe for concurrent use (the stores above it are single-threaded by
// design).
type Journal struct {
	alloc    *flash.Allocator
	block    int // active block: JournalBlockA or JournalBlockB
	nextPage int
	seq      uint64
	// retire holds blocks that became garbage during recovery (tail
	// copies) and may only be erased once a newer commit record no longer
	// references them.
	retire []int
}

// NewJournal creates a journal on a fresh chip, claiming the journal
// area from alloc.
func NewJournal(alloc *flash.Allocator) (*Journal, error) {
	if err := alloc.Claim(JournalBlockA); err != nil {
		return nil, err
	}
	if err := alloc.Claim(JournalBlockB); err != nil {
		return nil, err
	}
	return &Journal{alloc: alloc, block: JournalBlockA}, nil
}

// Seq returns the sequence number of the last committed record.
func (j *Journal) Seq() uint64 { return j.seq }

// Block returns the journal's current erase block.
func (j *Journal) Block() int { return j.block }

// Retire queues block b for erasure after the next successful Commit —
// used by recovery when a tail copy supersedes a block that the on-flash
// manifest still references.
func (j *Journal) Retire(b int) { j.retire = append(j.retire, b) }

// Commit appends a record carrying m. On success m.Seq holds the record's
// sequence number and every retired block has been reclaimed. When the
// journal block is full, the record is written to a fresh block before
// the old one is erased, so a crash at any point leaves a valid record.
func (j *Journal) Commit(m *Manifest) error {
	payload, err := encodeManifest(m)
	if err != nil {
		return err
	}
	g := j.alloc.Chip().Geometry()
	if len(payload) > MaxManifest(g) {
		return fmt.Errorf("%w: %d > %d", ErrManifestTooLarge, len(payload), MaxManifest(g))
	}
	rec := encodeRecord(j.seq+1, payload)
	chip := j.alloc.Chip()
	if j.nextPage == g.PagesPerBlock {
		// Ping-pong: the partner only holds strictly older records, so
		// erasing it before programming is safe — the current block keeps
		// the winning record until the new one lands.
		partner := JournalBlockA + JournalBlockB - j.block
		wc, err := chip.WrittenInBlock(partner)
		if err != nil {
			return err
		}
		if wc > 0 {
			if err := chip.EraseBlock(partner); err != nil {
				return err
			}
		}
		if err := chip.WritePage(partner*g.PagesPerBlock, rec); err != nil {
			return err
		}
		j.block, j.nextPage = partner, 1
	} else {
		if err := chip.WritePage(j.block*g.PagesPerBlock+j.nextPage, rec); err != nil {
			return err
		}
		j.nextPage++
	}
	j.seq++
	m.Seq = j.seq
	for len(j.retire) > 0 {
		b := j.retire[len(j.retire)-1]
		if err := j.alloc.Free(b); err != nil {
			return err
		}
		j.retire = j.retire[:len(j.retire)-1]
	}
	return nil
}
