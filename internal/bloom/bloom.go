// Package bloom implements the Bloom filters used as probabilistic page
// summaries by the embedded database of Part II: one small filter (~2 bytes
// per key) is built for each page of a key log, and a selection first scans
// the filter log ("summary scan") to decide which key pages to touch.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Filter is a classic Bloom filter with k hash functions derived from a
// single 64-bit FNV hash by the Kirsch–Mitzenmauer split.
type Filter struct {
	bits []byte
	m    uint32 // number of bits
	k    uint32 // number of hash functions
	n    int    // elements added
}

// New creates a filter with m bits and k hash functions.
func New(m, k int) *Filter {
	if m < 8 {
		m = 8
	}
	if k < 1 {
		k = 1
	}
	return &Filter{bits: make([]byte, (m+7)/8), m: uint32(m), k: uint32(k)}
}

// NewPageSummary sizes a filter with the paper's budget of roughly 2 bytes
// per key (16 bits/key ≈ 0.05% false positives at optimal k=11; we use a
// cheaper k=6, still far below 1%).
func NewPageSummary(keysPerPage int) *Filter {
	return NewPageSummaryBits(keysPerPage, 16)
}

// NewPageSummaryBits sizes a per-page summary with an explicit bit budget
// per key, picking a near-optimal hash count (~0.7·bits, clamped) — the
// knob the summary-size ablation turns.
func NewPageSummaryBits(keysPerPage, bitsPerKey int) *Filter {
	if keysPerPage < 1 {
		keysPerPage = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	k := int(float64(bitsPerKey)*0.7 + 0.5)
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return New(bitsPerKey*keysPerPage, k)
}

func baseHashes(key []byte) (uint32, uint32) {
	h := fnv.New64a()
	h.Write(key)
	v := h.Sum64()
	return uint32(v), uint32(v >> 32)
}

// testBits reports whether every bit key hashes to is set in an m-bit,
// k-hash filter.
func testBits(bits []byte, m, k uint32, key []byte) bool {
	h1, h2 := baseHashes(key)
	for i := uint32(0); i < k; i++ {
		bit := (h1 + i*h2) % m
		if bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) {
	h1, h2 := baseHashes(key)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + i*h2) % f.m
		f.bits[bit>>3] |= 1 << (bit & 7)
	}
	f.n++
}

// ErrCorrupt reports an unparseable marshaled filter.
var ErrCorrupt = errors.New("bloom: corrupt filter encoding")

// MarshalBinary encodes the filter as m | k | n | bits.
func (f *Filter) MarshalBinary() ([]byte, error) {
	out := make([]byte, 12+len(f.bits))
	binary.LittleEndian.PutUint32(out[0:4], f.m)
	binary.LittleEndian.PutUint32(out[4:8], f.k)
	binary.LittleEndian.PutUint32(out[8:12], uint32(f.n))
	copy(out[12:], f.bits)
	return out, nil
}

// maxBits bounds the accepted filter size (128 MiB of bits), rejecting
// absurd encodings before any allocation.
const maxBits = 1 << 30

// View is a read-only filter over the bytes MarshalBinary produced, read
// where they lie: a summary scan tests each page summary inside the page
// of RAM it was read into. A View is valid as long as those bytes are.
type View struct {
	bits []byte
	m, k uint32
	n    uint32
}

// ViewOf validates a marshaled filter and returns a view of it.
func ViewOf(data []byte) (View, error) {
	if len(data) < 12 {
		return View{}, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	m := binary.LittleEndian.Uint32(data[0:4])
	k := binary.LittleEndian.Uint32(data[4:8])
	n := binary.LittleEndian.Uint32(data[8:12])
	if m == 0 || m > maxBits || k == 0 || k > 64 {
		return View{}, fmt.Errorf("%w: m=%d k=%d", ErrCorrupt, m, k)
	}
	// 64-bit arithmetic: (m+7) must not wrap.
	want := int((uint64(m) + 7) / 8)
	if len(data) != 12+want {
		return View{}, fmt.Errorf("%w: m=%d k=%d len=%d", ErrCorrupt, m, k, len(data))
	}
	return View{bits: data[12:], m: m, k: k, n: n}, nil
}

// Test reports whether key may be in the filter.
func (v View) Test(key []byte) bool { return testBits(v.bits, v.m, v.k, key) }
